package netlist

import (
	"iter"
	"sort"
)

// View is a zero-copy induced subnetlist: the hypergraph restricted to
// a cell subset, exposed through dense local ids. It is built from two
// id-remap arrays (global→local for cells and nets) over the parent's
// flat CSR — no pin list is ever copied, so constructing a view is
// O(|parent| + pins(members)) memory-light compared to rebuilding a
// netlist through a Builder the way resynthesis and clustered
// placement used to.
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
	localNet  []int32  // global -> local; -1 outside the view
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
	v.localNet = make([]int32, nl.NumNets())
	for n := range v.localNet {
		if inside[n] >= 2 {
			v.localNet[n] = int32(len(v.nets))
			v.nets = append(v.nets, NetID(n))
			v.netSize = append(v.netSize, inside[n])
			v.pins += int(inside[n])
		} else {
			v.localNet[n] = -1
		}
	}
	return v
}

// Parent returns the netlist the view was induced from.
func (v *View) Parent() *Netlist { return v.nl }

// NumCells returns the number of cells in the view.
func (v *View) NumCells() int { return len(v.cells) }

// NumNets returns the number of induced nets (>= 2 member pins).
func (v *View) NumNets() int { return len(v.nets) }

// NumPins returns the total pin count of the induced subnetlist.
func (v *View) NumPins() int { return v.pins }

// GlobalCell maps a local cell id back to the parent netlist.
func (v *View) GlobalCell(c int32) CellID { return v.cells[c] }

// LocalCell maps a parent cell id into the view (-1 when outside).
func (v *View) LocalCell(c CellID) int32 { return v.localCell[c] }

// LocalNet maps a parent net id into the view (-1 when outside).
func (v *View) LocalNet(n NetID) int32 { return v.localNet[n] }

// Has reports whether parent cell c is in the view.
func (v *View) Has(c int) bool { return v.localCell[c] >= 0 }

// NetSize returns the pin count of local net n inside the view.
func (v *View) NetSize(n int32) int { return int(v.netSize[n]) }

// CellPins iterates the local ids of the view nets on local cell c, in
// ascending order, straight off the parent's flat arrays.
func (v *View) CellPins(c int32) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for _, n := range v.nl.CellPins(v.cells[c]) {
			if ln := v.localNet[n]; ln >= 0 {
				if !yield(ln) {
					return
				}
			}
		}
	}
}

// NetPins iterates the local ids of the member cells on local net n,
// in ascending order, straight off the parent's flat arrays.
func (v *View) NetPins(n int32) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for _, c := range v.nl.NetPins(v.nets[n]) {
			if lc := v.localCell[c]; lc >= 0 {
				if !yield(lc) {
					return
				}
			}
		}
	}
}

// CellDegree returns the number of view nets on local cell c (O(parent
// degree) — the filtered count is not precomputed).
func (v *View) CellDegree(c int32) int {
	d := 0
	for _, n := range v.nl.CellPins(v.cells[c]) {
		if v.localNet[n] >= 0 {
			d++
		}
	}
	return d
}

// CellArea returns the parent area of local cell c.
func (v *View) CellArea(c int32) float64 { return v.nl.CellArea(v.cells[c]) }

// Materialize copies the view into a standalone Netlist in local id
// space, carrying the parent's names and areas. This is the one place
// a view pays for pin copies — callers that only traverse use the
// view directly.
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
