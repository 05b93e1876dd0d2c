package netlist

// ResetBuilder empties b but keeps the capacity of its pin and offset
// arrays, so the allocation guard can run AddNet and Build on warm
// arrays.
func ResetBuilder(b *Builder) { *b = Builder{pins: b.pins[:0], netEnd: b.netEnd[:0]} }
