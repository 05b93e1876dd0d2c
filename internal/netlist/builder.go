package netlist

import (
	"fmt"
	"math"
	"slices"
)

// Builder incrementally assembles a Netlist. It dedupes repeated
// (cell, net) incidences so the finished netlist has set semantics, and
// can optionally drop degenerate nets (fewer than two distinct cells).
//
// Its state is flat and pointer-free: every net's pins sit back to
// back in one array, names are kept only up to the last named id,
// areas only up to the last cell given a non-unit area, and drivers
// only once some net is marked directed. AddCells is O(1) and AddNet
// appends to the pin array, so assembling a netlist allocates only as
// those arrays grow, never per net or per cell.
//
// The zero value is ready to use.
type Builder struct {
	// Net i pins pins[netEnd[i-1]:netEnd[i]] (netEnd[-1] being 0), in
	// AddNet order; Build sorts each run in place.
	pins     []CellID
	netEnd   []int
	numCells int

	// Names and areas past the end of these slices are "" and 1.
	netNames  []string
	cellNames []string
	cellArea  []float64

	// Direction annotation: drvCell[i] drives net drvNet[i], in
	// MarkDrivers call order. directed flips on the first
	// MarkDrivers/AddDrivenNet call; a directed netlist may still
	// contain nets with no drivers (undriven — a lint finding, not
	// missing data).
	drvNet   []NetID
	drvCell  []CellID
	directed bool

	// DropDegenerateNets discards nets with < 2 distinct cells at
	// Build time. Single-pin nets can never be cut and only perturb
	// the average pin count, so generators usually drop them.
	DropDegenerateNets bool
}

// setAt stores v at s[i], first growing s with fill up to i. A fill
// value past the end of s is already implied and stores nothing.
func setAt[T comparable](s []T, i int, v, fill T) []T {
	if i < len(s) {
		s[i] = v
		return s
	}
	if v == fill {
		return s
	}
	for len(s) < i {
		s = append(s, fill)
	}
	return append(s, v)
}

// AddCell registers a new cell and returns its id. name may be empty.
func (b *Builder) AddCell(name string) CellID {
	id := CellID(b.numCells)
	b.numCells++
	b.cellNames = setAt(b.cellNames, int(id), name, "")
	return id
}

// AddCells registers n anonymous unit-area cells and returns the id of
// the first; the ids are contiguous.
func (b *Builder) AddCells(n int) CellID {
	first := CellID(b.numCells)
	b.numCells += n
	return first
}

// SetCellArea overrides the placement area of cell c.
func (b *Builder) SetCellArea(c CellID, area float64) {
	if c < 0 || int(c) >= b.numCells {
		panic(fmt.Sprintf("netlist: SetCellArea on unknown cell %d", c))
	}
	b.cellArea = setAt(b.cellArea, int(c), area, 1)
}

// grow reserves room for that many more pins and nets, for callers
// that know the size up front.
func (b *Builder) grow(pins, nets int) {
	b.pins = slices.Grow(b.pins, pins)
	b.netEnd = slices.Grow(b.netEnd, nets)
}

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return b.numCells }

// AddNet registers a net pinning the given cells and returns its id.
// Duplicate cells within one net are collapsed. name may be empty.
// The cells are copied, so callers may reuse the slice.
func (b *Builder) AddNet(name string, cells ...CellID) NetID {
	id := NetID(len(b.netEnd))
	b.pins = append(b.pins, cells...)
	b.netEnd = append(b.netEnd, len(b.pins))
	b.netNames = setAt(b.netNames, int(id), name, "")
	return id
}

// AddDrivenNet registers a net whose pin set is drivers ∪ sinks and
// records the drivers, marking the netlist directed. A cell listed in
// both slices counts once as a pin and stays a driver.
func (b *Builder) AddDrivenNet(name string, drivers []CellID, sinks ...CellID) NetID {
	b.pins = append(b.pins, drivers...)
	id := b.AddNet(name, sinks...)
	b.MarkDrivers(id, drivers...)
	return id
}

// MarkDrivers records the given cells as drivers of net n (appending
// to any already marked) and marks the netlist directed. Every driver
// must be one of the net's pins by Build time.
func (b *Builder) MarkDrivers(n NetID, drivers ...CellID) {
	if n < 0 || int(n) >= len(b.netEnd) {
		panic(fmt.Sprintf("netlist: MarkDrivers on unknown net %d", n))
	}
	b.directed = true
	for _, c := range drivers {
		b.drvNet = append(b.drvNet, n)
		b.drvCell = append(b.drvCell, c)
	}
}

// Build finalizes the netlist into its flat CSR form. It sorts each
// net's pin run in place, writes the deduplicated net side into fresh
// exactly-sized arrays, and derives the cell side in one counting
// pass, so it allocates a fixed number of arrays whatever the size of
// the netlist. The Builder stays usable: Build may be called again,
// after more cells and nets or none. It returns an error if any net
// pins an unknown cell id, a driver is not one of its net's pins, or
// the total pin count overflows the int32 offset space.
func (b *Builder) Build() (*Netlist, error) {
	var drvOff []int32
	var drv []CellID
	if b.directed {
		drvOff, drv = b.groupDrivers()
	}
	// Pass 1: sort and validate every run, and size the output.
	keptNets, keptPins, keptDrv, namedNets := 0, 0, 0, 0
	start := 0
	for i, end := range b.netEnd {
		run := b.pins[start:end]
		start = end
		slices.Sort(run)
		if len(run) > 0 && (run[0] < 0 || int(run[len(run)-1]) >= b.numCells) {
			return nil, fmt.Errorf("netlist: net %q pins unknown cell %d", b.netName(i), firstUnknown(run, b.numCells))
		}
		if b.DropDegenerateNets && degenerate(run) {
			continue
		}
		if b.directed {
			d := drv[drvOff[i]:drvOff[i+1]]
			slices.Sort(d)
			if err := checkSubset(d, run); err != nil {
				return nil, fmt.Errorf("netlist: net %q: %w", b.netName(i), err)
			}
			keptDrv += countUnique(d)
		}
		keptNets++
		keptPins += countUnique(run)
		if b.netName(i) != "" {
			namedNets = keptNets
		}
	}
	if keptPins > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: %d pins overflow the int32 CSR offset space", keptPins)
	}

	// Pass 2: copy the distinct pins (and drivers) of every kept net.
	off := make([]int32, keptNets+1)
	pins := make([]CellID, keptPins)
	var names []string
	if namedNets > 0 {
		names = make([]string, namedNets)
	}
	var outDrvOff []int32
	var outDrv []CellID
	if b.directed {
		outDrvOff = make([]int32, keptNets+1)
		outDrv = make([]CellID, keptDrv)
	}
	k, at, dat := 0, int32(0), int32(0)
	start = 0
	for i, end := range b.netEnd {
		run := b.pins[start:end]
		start = end
		if b.DropDegenerateNets && degenerate(run) {
			continue
		}
		off[k] = at
		at += copyUnique(pins[at:], run)
		if b.directed {
			outDrvOff[k] = dat
			dat += copyUnique(outDrv[dat:], drv[drvOff[i]:drvOff[i+1]])
		}
		if k < len(names) {
			names[k] = b.netName(i)
		}
		k++
	}
	off[k] = at

	var area []float64
	if b.cellArea != nil {
		area = make([]float64, b.numCells)
		for c := copy(area, b.cellArea); c < len(area); c++ {
			area[c] = 1
		}
	}
	nl := fromNetCSR(b.numCells, off, pins, names, slices.Clone(b.cellNames), area)
	if b.directed {
		outDrvOff[k] = dat
		nl.attachDrivers(outDrvOff, outDrv)
	}
	return nl, nil
}

// netName returns the name given to net i ("" when none).
func (b *Builder) netName(i int) string {
	if i < len(b.netNames) {
		return b.netNames[i]
	}
	return ""
}

// groupDrivers buckets the marked drivers by net with one counting
// sort: net n's drivers are cells[off[n]:off[n+1]], in no particular
// order.
func (b *Builder) groupDrivers() (off []int32, cells []CellID) {
	numNets := len(b.netEnd)
	off = make([]int32, numNets+1)
	for _, n := range b.drvNet {
		off[n+1]++
	}
	for n := 0; n < numNets; n++ {
		off[n+1] += off[n]
	}
	// off[n] is net n's write cursor; it ends at n's run end, which is
	// n+1's start, and one shift restores the offsets.
	cells = make([]CellID, len(b.drvCell))
	for i, n := range b.drvNet {
		cells[off[n]] = b.drvCell[i]
		off[n]++
	}
	copy(off[1:], off[:numNets])
	off[0] = 0
	return off, cells
}

// degenerate reports whether a sorted run holds fewer than two
// distinct cells.
func degenerate(run []CellID) bool {
	return len(run) == 0 || run[0] == run[len(run)-1]
}

// firstUnknown returns the first id in the sorted run outside
// [0, numCells).
func firstUnknown(run []CellID, numCells int) CellID {
	for _, c := range run {
		if c < 0 || int(c) >= numCells {
			return c
		}
	}
	return -1
}

// countUnique returns the number of distinct ids in a sorted run.
func countUnique(run []CellID) int {
	n := 0
	for i, c := range run {
		if i == 0 || c != run[i-1] {
			n++
		}
	}
	return n
}

// copyUnique copies the distinct ids of a sorted run into dst and
// returns how many it wrote.
func copyUnique(dst, run []CellID) int32 {
	n := 0
	for i, c := range run {
		if i == 0 || c != run[i-1] {
			dst[n] = c
			n++
		}
	}
	return int32(n)
}

// checkSubset verifies sub ⊆ super for two ascending runs.
func checkSubset(sub, super []CellID) error {
	at := 0
	for _, c := range sub {
		for at < len(super) && super[at] < c {
			at++
		}
		if at >= len(super) || super[at] != c {
			return fmt.Errorf("driver %d is not one of the net's pins", c)
		}
	}
	return nil
}

// MustBuild is Build but panics on error; for tests and generators
// whose inputs are constructed correctly by design.
func (b *Builder) MustBuild() *Netlist {
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return nl
}

// fromNetCSR constructs a Netlist directly from the net→cell direction
// of the incidence structure, taking ownership of the given slices and
// deriving the cell side in O(pins). Every pin run must already be
// strictly ascending with ids in range — callers (Builder.Build, the
// .tfb reader, View.Materialize, Delta.Apply) guarantee that before
// handing the arrays over. Optional names/areas may be nil or shorter
// than the id space.
func fromNetCSR(numCells int, netPinOff []int32, netPinCell []CellID, netNames, cellNames []string, cellArea []float64) *Netlist {
	nl := &Netlist{
		cellPinOff: make([]int32, numCells+1),
		cellPinNet: make([]NetID, len(netPinCell)),
		netPinOff:  netPinOff,
		netPinCell: netPinCell,
		cellNames:  cellNames,
		netNames:   netNames,
		cellArea:   cellArea,
	}
	off := nl.cellPinOff
	for _, c := range netPinCell {
		off[c+1]++
	}
	for c := 0; c < numCells; c++ {
		off[c+1] += off[c]
	}
	// Scatter the nets in ascending id order, so every cell's run comes
	// out strictly ascending (the CSR invariant). off[c] is cell c's
	// write cursor; it ends at c's run end, which is c+1's start, and
	// one shift restores the offsets.
	numNets := len(netPinOff) - 1
	for n := 0; n < numNets; n++ {
		for _, c := range netPinCell[netPinOff[n]:netPinOff[n+1]] {
			nl.cellPinNet[off[c]] = NetID(n)
			off[c]++
		}
	}
	copy(off[1:], off[:numCells])
	off[0] = 0
	return nl
}
