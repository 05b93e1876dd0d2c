package generate

import (
	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Embed splices a fragment into a host under construction. Internal
// nets are copied verbatim; each open net additionally receives one or
// two host pins drawn from hostOpen (the host's unconsumed terminals),
// wiring the structure into the circuit while keeping its cut equal to
// len(frag.OpenNets). It returns the fragment's cells as global ids —
// the ground truth the experiments score against.
func Embed(b *netlist.Builder, frag Fragment, hostOpen []netlist.CellID, rng *ds.RNG) []netlist.CellID {
	base := b.AddCells(frag.Cells)
	global := func(local int32) netlist.CellID { return base + netlist.CellID(local) }
	var pins []netlist.CellID // one scratch net; AddNet copies
	for _, net := range frag.InternalNets {
		pins = pins[:0]
		for _, l := range net {
			pins = append(pins, global(l))
		}
		b.AddNet("", pins...)
	}
	for _, net := range frag.OpenNets {
		pins = pins[:0]
		for _, l := range net {
			pins = append(pins, global(l))
		}
		if len(hostOpen) > 0 {
			pins = append(pins, hostOpen[rng.Intn(len(hostOpen))])
			if rng.Float64() < 0.3 {
				pins = append(pins, hostOpen[rng.Intn(len(hostOpen))])
			}
		}
		b.AddNet("", pins...)
	}
	cells := make([]netlist.CellID, frag.Cells)
	for i := range cells {
		cells[i] = base + netlist.CellID(i)
	}
	return cells
}

// BuildStandalone materializes a fragment as its own netlist (open nets
// become the structure's I/O). Useful for unit tests and the examples.
func BuildStandalone(frag Fragment) (*netlist.Netlist, error) {
	var b netlist.Builder
	b.DropDegenerateNets = false
	b.AddCells(frag.Cells)
	for _, net := range frag.InternalNets {
		b.AddNet("", net...)
	}
	for _, net := range frag.OpenNets {
		b.AddNet("", net...)
	}
	return b.Build()
}
