package netlist

// ResetBuilder empties b but keeps the capacity of its pin and offset
// arrays, so the allocation guard can run AddNet and Build on warm
// arrays.
func ResetBuilder(b *Builder) { *b = Builder{pins: b.pins[:0], netEnd: b.netEnd[:0]} }

// Tables returns nl's name and area tables as stored, so an external
// test can see which arrays a delta child shares with its parent.
func Tables(nl *Netlist) (netNames, cellNames []string, cellArea []float64) {
	return nl.netNames, nl.cellNames, nl.cellArea
}
