// Package netlist models a synthesized VLSI netlist as a hypergraph:
// cells (gates) connected by nets, where each net pins a set of cells.
//
// This is the substrate every other tanglefind package builds on. The
// representation is a flat CSR (compressed sparse row) incidence
// structure — cells and nets are dense int32 ids, and both directions
// of the incidence relation live in two flat arrays each:
//
//	cellPinOff[c] : cellPinOff[c+1]  indexes cellPinNet  → nets on cell c
//	netPinOff[n]  : netPinOff[n+1]   indexes netPinCell  → cells on net n
//
// so that the tangled-logic finder can traverse netlists with hundreds
// of thousands of cells with one cache line per pin run instead of a
// pointer dereference per pin list. Accessors return subslices of the
// flat arrays; callers never copy pins to walk the graph.
//
// Invariants (established by Builder and the file readers, checked by
// Validate): each pin run is strictly ascending (which also rules out
// duplicate incidences), offsets are non-decreasing and span the flat
// arrays exactly, and the two directions are symmetric.
//
// Pin semantics follow the paper: a net e is a subset of cells, so a
// cell contributes at most one pin to a given net (the Builder dedupes
// repeated connections), |e| is the number of cells on e, and the pin
// count of a cell is the number of distinct nets incident to it.
//
// # Optional direction annotation
//
// A netlist may additionally carry a driver annotation: a third CSR
// run set (netDrvOff/netDrvCell) listing, per net, the sorted subset
// of its pins that drive the net. The detection engine never reads it
// — tangle mining is purely topological — but the lint rules in
// internal/lint need a directed view (multi-driven nets, undriven
// nets, combinational loops), and synthesized-netlist sources know
// their drivers. A nil driver CSR means "no direction information"
// (Directed reports false); a directed netlist with an empty driver
// run for some net means that net is genuinely undriven, which is a
// lintable defect, not missing data. Derived structures that resample
// the hypergraph (coarsening levels, induced views) drop the
// annotation; lint runs at full resolution.
package netlist

import "fmt"

// CellID identifies a cell (gate) within a Netlist.
type CellID = int32

// NetID identifies a net within a Netlist.
type NetID = int32

// Netlist is an immutable hypergraph of cells and nets in CSR form.
// Construct one with a Builder, a generator or the .tfnet/.tfb
// readers; the zero value is an empty netlist.
type Netlist struct {
	cellPinOff []int32  // len NumCells+1; cell -> range in cellPinNet
	cellPinNet []NetID  // flat pin array; per-cell runs strictly ascending
	netPinOff  []int32  // len NumNets+1; net -> range in netPinCell
	netPinCell []CellID // flat pin array; per-net runs strictly ascending

	// Optional driver annotation (see the package comment): per net,
	// the sorted subset of its pins that drive it. nil netDrvOff means
	// the netlist carries no direction information at all.
	netDrvOff  []int32
	netDrvCell []CellID

	cellNames []string  // optional; empty means synthesized names
	netNames  []string  // optional
	cellArea  []float64 // optional; nil means unit area
}

// NumCells returns the number of cells.
func (nl *Netlist) NumCells() int {
	if len(nl.cellPinOff) == 0 {
		return 0
	}
	return len(nl.cellPinOff) - 1
}

// NumNets returns the number of nets.
func (nl *Netlist) NumNets() int {
	if len(nl.netPinOff) == 0 {
		return 0
	}
	return len(nl.netPinOff) - 1
}

// NumPins returns the total pin count Σ_e |e|.
func (nl *Netlist) NumPins() int { return len(nl.cellPinNet) }

// CellPins returns the nets incident to cell c as a subslice of the
// flat CSR array, strictly ascending. The caller must not modify it.
func (nl *Netlist) CellPins(c CellID) []NetID {
	return nl.cellPinNet[nl.cellPinOff[c]:nl.cellPinOff[c+1]]
}

// NetPins returns the cells on net n as a subslice of the flat CSR
// array, strictly ascending. The caller must not modify it.
func (nl *Netlist) NetPins(n NetID) []CellID {
	return nl.netPinCell[nl.netPinOff[n]:nl.netPinOff[n+1]]
}

// Directed reports whether the netlist carries a driver annotation.
func (nl *Netlist) Directed() bool { return nl.netDrvOff != nil }

// NetDrivers returns the cells driving net n as a subslice of the
// driver CSR, strictly ascending; nil when the netlist is undirected.
// An empty run on a directed netlist means the net is undriven. The
// caller must not modify the slice.
func (nl *Netlist) NetDrivers(n NetID) []CellID {
	if nl.netDrvOff == nil {
		return nil
	}
	return nl.netDrvCell[nl.netDrvOff[n]:nl.netDrvOff[n+1]]
}

// NumDriverPins returns the total driver pin count across all nets
// (0 for undirected netlists).
func (nl *Netlist) NumDriverPins() int { return len(nl.netDrvCell) }

// attachDrivers installs a driver CSR, taking ownership of the
// slices. Constructors call it after the pin CSR is in place; the
// caller guarantees well-formed offsets and sorted runs that are
// subsets of the corresponding pin runs (Validate checks all of it).
func (nl *Netlist) attachDrivers(off []int32, cells []CellID) {
	nl.netDrvOff = off
	nl.netDrvCell = cells
}

// CellDegree returns the number of pins on cell c (distinct nets).
func (nl *Netlist) CellDegree(c CellID) int {
	return int(nl.cellPinOff[c+1] - nl.cellPinOff[c])
}

// NetSize returns |e| for net n: the number of cells it pins.
func (nl *Netlist) NetSize(n NetID) int {
	return int(nl.netPinOff[n+1] - nl.netPinOff[n])
}

// NetCSR returns a copy of the net→cell direction of the incidence
// structure: offsets (len NumNets+1) and the flat pin array it
// indexes. Callers that rewrite pins wholesale (resynthesis, netlist
// editing) mutate the copy and feed it back through a Builder, instead
// of materializing one slice per net.
func (nl *Netlist) NetCSR() (offsets []int32, pins []CellID) {
	offsets = make([]int32, len(nl.netPinOff))
	copy(offsets, nl.netPinOff)
	pins = make([]CellID, len(nl.netPinCell))
	copy(pins, nl.netPinCell)
	return offsets, pins
}

// MemoryFootprint estimates the netlist's retained bytes: both CSR
// directions plus names and areas. Used by serving layers to account
// for coarse hierarchy levels against memory budgets.
func (nl *Netlist) MemoryFootprint() int64 {
	b := int64(len(nl.cellPinOff))*4 + int64(len(nl.cellPinNet))*4 +
		int64(len(nl.netPinOff))*4 + int64(len(nl.netPinCell))*4 +
		int64(len(nl.netDrvOff))*4 + int64(len(nl.netDrvCell))*4 +
		int64(len(nl.cellArea))*8
	for _, s := range nl.cellNames {
		b += int64(len(s)) + 16
	}
	for _, s := range nl.netNames {
		b += int64(len(s)) + 16
	}
	return b
}

// AvgPins returns A(G): total pins divided by the number of cells.
// This is the paper's normalization constant A_G. It returns 0 for an
// empty netlist.
func (nl *Netlist) AvgPins() float64 {
	if nl.NumCells() == 0 {
		return 0
	}
	return float64(nl.NumPins()) / float64(nl.NumCells())
}

// CellName returns the name of cell c, synthesizing "c<id>" when the
// netlist carries no names.
func (nl *Netlist) CellName(c CellID) string {
	if int(c) < len(nl.cellNames) && nl.cellNames[c] != "" {
		return nl.cellNames[c]
	}
	return fmt.Sprintf("c%d", c)
}

// NetName returns the name of net n, synthesizing "n<id>" when absent.
func (nl *Netlist) NetName(n NetID) string {
	if int(n) < len(nl.netNames) && nl.netNames[n] != "" {
		return nl.netNames[n]
	}
	return fmt.Sprintf("n%d", n)
}

// CellArea returns the placement area of cell c (1.0 when unset).
func (nl *Netlist) CellArea(c CellID) float64 {
	if nl.cellArea == nil {
		return 1
	}
	return nl.cellArea[c]
}

// TotalArea returns the sum of all cell areas.
func (nl *Netlist) TotalArea() float64 {
	if nl.cellArea == nil {
		return float64(nl.NumCells())
	}
	sum := 0.0
	for _, a := range nl.cellArea {
		sum += a
	}
	return sum
}

// WithAreas returns a shallow copy of the netlist with the given cell
// areas (len must equal NumCells). The hypergraph itself is shared.
func (nl *Netlist) WithAreas(area []float64) (*Netlist, error) {
	if len(area) != nl.NumCells() {
		return nil, fmt.Errorf("netlist: area slice has %d entries for %d cells", len(area), nl.NumCells())
	}
	cp := &Netlist{
		cellPinOff: nl.cellPinOff,
		cellPinNet: nl.cellPinNet,
		netPinOff:  nl.netPinOff,
		netPinCell: nl.netPinCell,
		netDrvOff:  nl.netDrvOff,
		netDrvCell: nl.netDrvCell,
		cellNames:  nl.cellNames,
		netNames:   nl.netNames,
		cellArea:   area,
	}
	return cp, nil
}

// checkOffsets verifies one CSR offset array: starts at 0, is
// non-decreasing and ends exactly at the flat array's length.
func checkOffsets(kind string, off []int32, flatLen int) error {
	if len(off) == 0 {
		if flatLen != 0 {
			return fmt.Errorf("netlist: %s offsets missing for %d pins", kind, flatLen)
		}
		return nil
	}
	if off[0] != 0 {
		return fmt.Errorf("netlist: %s offsets start at %d, want 0", kind, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("netlist: %s offsets decrease at %d (%d -> %d)", kind, i, off[i-1], off[i])
		}
	}
	if int(off[len(off)-1]) != flatLen {
		return fmt.Errorf("netlist: %s offsets end at %d, want %d", kind, off[len(off)-1], flatLen)
	}
	return nil
}

// Validate checks the structural invariants of the CSR netlist
// directly on the flat arrays: well-formed offsets, ids in range,
// strictly ascending pin runs (which rules out duplicate incidences)
// and symmetric incidence — all in O(pins) with no hashing.
func (nl *Netlist) Validate() error {
	numCells, numNets := nl.NumCells(), nl.NumNets()
	if err := checkOffsets("cell", nl.cellPinOff, len(nl.cellPinNet)); err != nil {
		return err
	}
	if err := checkOffsets("net", nl.netPinOff, len(nl.netPinCell)); err != nil {
		return err
	}
	if len(nl.cellPinNet) != len(nl.netPinCell) {
		return fmt.Errorf("netlist: cell-side pin count %d != net-side %d", len(nl.cellPinNet), len(nl.netPinCell))
	}
	for c := 0; c < numCells; c++ {
		pins := nl.CellPins(CellID(c))
		for i, n := range pins {
			if n < 0 || int(n) >= numNets {
				return fmt.Errorf("netlist: cell %d (%s) pins out-of-range net %d", c, nl.CellName(CellID(c)), n)
			}
			if i > 0 && pins[i-1] >= n {
				// Name the offending run precisely: which cell, where in
				// its run, and both ids in the violating pair — lint and
				// delta debugging lean on these diagnostics.
				return fmt.Errorf("netlist: cell %d (%s) pin run not strictly ascending: position %d lists net %d after net %d",
					c, nl.CellName(CellID(c)), i, n, pins[i-1])
			}
		}
	}
	for n := 0; n < numNets; n++ {
		pins := nl.NetPins(NetID(n))
		for i, c := range pins {
			if c < 0 || int(c) >= numCells {
				return fmt.Errorf("netlist: net %d (%s) pins out-of-range cell %d", n, nl.NetName(NetID(n)), c)
			}
			if i > 0 && pins[i-1] >= c {
				return fmt.Errorf("netlist: net %d (%s) pin run not strictly ascending: position %d lists cell %d after cell %d",
					n, nl.NetName(NetID(n)), i, c, pins[i-1])
			}
		}
	}
	if err := nl.validateDrivers(); err != nil {
		return err
	}
	// Symmetry by counting: walk nets in ascending id order and advance
	// a read cursor per cell. Because each cell's pin run is ascending,
	// the cursor must see exactly net n when net n lists the cell —
	// any mismatch in either direction surfaces as a cursor miss or as
	// unconsumed cell-side pins.
	cursor := make([]int32, numCells)
	for n := 0; n < numNets; n++ {
		for _, c := range nl.NetPins(NetID(n)) {
			at := nl.cellPinOff[c] + cursor[c]
			if at >= nl.cellPinOff[c+1] || nl.cellPinNet[at] != NetID(n) {
				return fmt.Errorf("netlist: net %d lists cell %d but cell does not list net", n, c)
			}
			cursor[c]++
		}
	}
	for c := 0; c < numCells; c++ {
		if int(cursor[c]) != nl.CellDegree(CellID(c)) {
			return fmt.Errorf("netlist: cell %d lists %d nets but nets list it %d times", c, nl.CellDegree(CellID(c)), cursor[c])
		}
	}
	return nil
}

// validateDrivers checks the optional driver CSR: well-formed
// offsets, strictly ascending runs, and every driver present in the
// corresponding pin run — O(pins) via a merge walk per net.
func (nl *Netlist) validateDrivers() error {
	if nl.netDrvOff == nil {
		if len(nl.netDrvCell) != 0 {
			return fmt.Errorf("netlist: driver offsets missing for %d driver pins", len(nl.netDrvCell))
		}
		return nil
	}
	if err := checkOffsets("driver", nl.netDrvOff, len(nl.netDrvCell)); err != nil {
		return err
	}
	if len(nl.netDrvOff) != nl.NumNets()+1 {
		return fmt.Errorf("netlist: driver offsets cover %d nets, want %d", len(nl.netDrvOff)-1, nl.NumNets())
	}
	for n := 0; n < nl.NumNets(); n++ {
		drv := nl.NetDrivers(NetID(n))
		pins := nl.NetPins(NetID(n))
		at := 0
		for i, c := range drv {
			if i > 0 && drv[i-1] >= c {
				return fmt.Errorf("netlist: net %d (%s) driver run not strictly ascending: position %d lists cell %d after cell %d",
					n, nl.NetName(NetID(n)), i, c, drv[i-1])
			}
			for at < len(pins) && pins[at] < c {
				at++
			}
			if at >= len(pins) || pins[at] != c {
				return fmt.Errorf("netlist: net %d (%s) lists driver %d that is not one of its pins", n, nl.NetName(NetID(n)), c)
			}
		}
	}
	return nil
}

// Stats summarizes a netlist for reports and sanity checks.
type Stats struct {
	Cells, Nets, Pins     int
	AvgPins               float64 // A(G)
	MaxNetSize, MaxDegree int
}

// Stats computes summary statistics.
func (nl *Netlist) Stats() Stats {
	s := Stats{Cells: nl.NumCells(), Nets: nl.NumNets(), Pins: nl.NumPins(), AvgPins: nl.AvgPins()}
	for n := 0; n < s.Nets; n++ {
		if sz := nl.NetSize(NetID(n)); sz > s.MaxNetSize {
			s.MaxNetSize = sz
		}
	}
	for c := 0; c < s.Cells; c++ {
		if d := nl.CellDegree(CellID(c)); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}
