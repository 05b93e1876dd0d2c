package netlist

import "sort"

// View is an induced subnetlist: the hypergraph restricted to a cell
// subset, with dense local ids. It holds the cell id remap and the
// kept nets over the parent's flat CSR, so constructing a view copies
// no pin list; Materialize then builds the standalone netlist in one
// pass, without a trip through a Builder.
//
// Induced semantics match Builder.DropDegenerateNets: a parent net
// joins the view iff at least two member cells pin it (a net with one
// inside pin can never be cut inside the subset). Local cell and net
// ids are assigned in ascending global order, so every local pin run
// stays sorted.
//
// A View shares the parent's arrays and is immutable and safe for
// concurrent use.
type View struct {
	nl        *Netlist
	cells     []CellID // local -> global, strictly ascending
	localCell []int32  // global -> local; -1 outside the view
	nets      []NetID  // local -> global, strictly ascending
	netSize   []int32  // per view net: member pins on it
	pins      int      // Σ netSize
}

// InducedView builds the view of the subnetlist induced by members.
// Duplicate members are collapsed; members order is irrelevant.
func (nl *Netlist) InducedView(members []CellID) *View {
	v := &View{nl: nl}
	v.localCell = make([]int32, nl.NumCells())
	for i := range v.localCell {
		v.localCell[i] = -1
	}
	v.cells = make([]CellID, 0, len(members))
	for _, c := range members {
		if v.localCell[c] < 0 {
			v.localCell[c] = 0 // mark; real ids assigned after sorting
			v.cells = append(v.cells, c)
		}
	}
	sort.Slice(v.cells, func(i, j int) bool { return v.cells[i] < v.cells[j] })
	for i, c := range v.cells {
		v.localCell[c] = int32(i)
	}
	// Count member pins per net, then keep nets with >= 2 of them.
	inside := make([]int32, nl.NumNets())
	for _, c := range v.cells {
		for _, n := range nl.CellPins(c) {
			inside[n]++
		}
	}
	for n, k := range inside {
		if k >= 2 {
			v.nets = append(v.nets, NetID(n))
			v.netSize = append(v.netSize, k)
			v.pins += int(k)
		}
	}
	return v
}

// LocalCell maps a parent cell id into the view (-1 when outside).
func (v *View) LocalCell(c CellID) int32 { return v.localCell[c] }

// Materialize copies the view into a standalone Netlist in local id
// space, carrying the parent's names and areas. This is the one place
// a view pays for pin copies.
func (v *View) Materialize() *Netlist {
	off := make([]int32, len(v.nets)+1)
	for n := range v.nets {
		off[n+1] = off[n] + v.netSize[n]
	}
	pins := make([]CellID, v.pins)
	at := 0
	for n := range v.nets {
		for _, c := range v.nl.NetPins(v.nets[n]) {
			if lc := v.localCell[c]; lc >= 0 {
				pins[at] = lc
				at++
			}
		}
	}
	var names []string
	var areas []float64
	if len(v.nl.cellNames) > 0 {
		names = make([]string, len(v.cells))
		for i, c := range v.cells {
			if int(c) < len(v.nl.cellNames) {
				names[i] = v.nl.cellNames[c]
			}
		}
	}
	if v.nl.cellArea != nil {
		areas = make([]float64, len(v.cells))
		for i, c := range v.cells {
			areas[i] = v.nl.cellArea[c]
		}
	}
	var netNames []string
	if len(v.nl.netNames) > 0 {
		netNames = make([]string, len(v.nets))
		for i, n := range v.nets {
			if int(n) < len(v.nl.netNames) {
				netNames[i] = v.nl.netNames[n]
			}
		}
	}
	return fromNetCSR(len(v.cells), off, pins, netNames, names, areas)
}
