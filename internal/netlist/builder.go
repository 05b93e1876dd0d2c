package netlist

import (
	"fmt"
	"math"
	"sort"
)

// Builder incrementally assembles a Netlist. It dedupes repeated
// (cell, net) incidences so the finished netlist has set semantics, and
// can optionally drop degenerate nets (fewer than two distinct cells).
//
// The zero value is ready to use.
type Builder struct {
	netCells  [][]CellID
	netNames  []string
	cellNames []string
	cellArea  []float64
	numCells  int

	// Direction annotation: per-net driver lists, parallel to
	// netCells. directed flips on the first MarkDrivers/AddDrivenNet
	// call; a directed netlist may still contain nets with no drivers
	// (undriven — a lint finding, not missing data).
	netDrivers [][]CellID
	directed   bool

	// DropDegenerateNets discards nets with < 2 distinct cells at
	// Build time. Single-pin nets can never be cut and only perturb
	// the average pin count, so generators usually drop them.
	DropDegenerateNets bool
}

// AddCell registers a new cell and returns its id. name may be empty.
func (b *Builder) AddCell(name string) CellID {
	id := CellID(b.numCells)
	b.numCells++
	b.cellNames = append(b.cellNames, name)
	b.cellArea = append(b.cellArea, 1)
	return id
}

// AddCells registers n anonymous unit-area cells and returns the id of
// the first; the ids are contiguous.
func (b *Builder) AddCells(n int) CellID {
	first := CellID(b.numCells)
	b.numCells += n
	for i := 0; i < n; i++ {
		b.cellNames = append(b.cellNames, "")
		b.cellArea = append(b.cellArea, 1)
	}
	return first
}

// SetCellArea overrides the placement area of cell c.
func (b *Builder) SetCellArea(c CellID, area float64) { b.cellArea[c] = area }

// NumCells returns the number of cells added so far.
func (b *Builder) NumCells() int { return b.numCells }

// AddNet registers a net pinning the given cells and returns its id.
// Duplicate cells within one net are collapsed. name may be empty.
func (b *Builder) AddNet(name string, cells ...CellID) NetID {
	id := NetID(len(b.netCells))
	cp := make([]CellID, len(cells))
	copy(cp, cells)
	b.netCells = append(b.netCells, cp)
	b.netNames = append(b.netNames, name)
	b.netDrivers = append(b.netDrivers, nil)
	return id
}

// AddDrivenNet registers a net whose pin set is drivers ∪ sinks and
// records the drivers, marking the netlist directed. A cell listed in
// both slices counts once as a pin and stays a driver.
func (b *Builder) AddDrivenNet(name string, drivers []CellID, sinks ...CellID) NetID {
	pins := make([]CellID, 0, len(drivers)+len(sinks))
	pins = append(pins, drivers...)
	pins = append(pins, sinks...)
	id := b.AddNet(name, pins...)
	b.MarkDrivers(id, drivers...)
	return id
}

// MarkDrivers records the given cells as drivers of net n (appending
// to any already marked) and marks the netlist directed. Every driver
// must be one of the net's pins by Build time.
func (b *Builder) MarkDrivers(n NetID, drivers ...CellID) {
	b.directed = true
	b.netDrivers[n] = append(b.netDrivers[n], drivers...)
}

// Build finalizes the netlist into its flat CSR form with two counting
// passes (net side sizes, then cell side degrees) and no per-list
// allocations. It returns an error if any net pins an unknown cell id
// or the total pin count overflows the int32 offset space.
func (b *Builder) Build() (*Netlist, error) {
	// Dedupe every net in place and validate ids, remembering which
	// nets survive and the total pin count.
	keep := make([][]CellID, 0, len(b.netCells))
	names := make([]string, 0, len(b.netCells))
	var drivers [][]CellID
	if b.directed {
		drivers = make([][]CellID, 0, len(b.netCells))
	}
	totalPins, totalDrv := 0, 0
	for i, cells := range b.netCells {
		uniq := dedupe(cells)
		for _, c := range uniq {
			if c < 0 || int(c) >= b.numCells {
				return nil, fmt.Errorf("netlist: net %q pins unknown cell %d", b.netNames[i], c)
			}
		}
		if b.DropDegenerateNets && len(uniq) < 2 {
			continue
		}
		if b.directed {
			drv := dedupe(b.netDrivers[i])
			if err := checkSubset(drv, uniq); err != nil {
				return nil, fmt.Errorf("netlist: net %q: %w", b.netNames[i], err)
			}
			drivers = append(drivers, drv)
			totalDrv += len(drv)
		}
		keep = append(keep, uniq)
		names = append(names, b.netNames[i])
		totalPins += len(uniq)
	}
	if totalPins > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: %d pins overflow the int32 CSR offset space", totalPins)
	}

	nl := &Netlist{
		cellPinOff: make([]int32, b.numCells+1),
		cellPinNet: make([]NetID, totalPins),
		netPinOff:  make([]int32, len(keep)+1),
		netPinCell: make([]CellID, totalPins),
		cellNames:  b.cellNames,
		netNames:   names,
		cellArea:   b.cellArea,
	}
	// Net side: concatenate the deduped (sorted) pin lists.
	at := int32(0)
	for n, cells := range keep {
		nl.netPinOff[n] = at
		copy(nl.netPinCell[at:], cells)
		at += int32(len(cells))
		// Count cell degrees in the same pass (shifted by one so the
		// prefix sum below lands the counts as offsets).
		for _, c := range cells {
			nl.cellPinOff[c+1]++
		}
	}
	nl.netPinOff[len(keep)] = at
	// Cell side: prefix-sum the degrees into offsets, then scatter the
	// nets. Visiting nets in ascending id order keeps every cell's pin
	// run strictly ascending — the CSR invariant.
	for c := 0; c < b.numCells; c++ {
		nl.cellPinOff[c+1] += nl.cellPinOff[c]
	}
	cursor := make([]int32, b.numCells)
	for n, cells := range keep {
		for _, c := range cells {
			nl.cellPinNet[nl.cellPinOff[c]+cursor[c]] = NetID(n)
			cursor[c]++
		}
	}
	if b.directed {
		drvOff := make([]int32, len(keep)+1)
		drvCell := make([]CellID, totalDrv)
		dat := int32(0)
		for n, drv := range drivers {
			drvOff[n] = dat
			dat += int32(copy(drvCell[dat:], drv))
		}
		drvOff[len(keep)] = dat
		nl.attachDrivers(drvOff, drvCell)
	}
	return nl, nil
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
// strictly ascending with ids in range — callers (the .tfb reader,
// View.Materialize) verify that before handing the arrays over.
// Optional names/areas may be nil or shorter than the id space.
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
	for _, c := range netPinCell {
		nl.cellPinOff[c+1]++
	}
	for c := 0; c < numCells; c++ {
		nl.cellPinOff[c+1] += nl.cellPinOff[c]
	}
	cursor := make([]int32, numCells)
	numNets := len(netPinOff) - 1
	for n := 0; n < numNets; n++ {
		for _, c := range netPinCell[netPinOff[n]:netPinOff[n+1]] {
			nl.cellPinNet[nl.cellPinOff[c]+cursor[c]] = NetID(n)
			cursor[c]++
		}
	}
	return nl
}

func dedupe(cells []CellID) []CellID {
	if len(cells) <= 1 {
		return cells
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	out := cells[:1]
	for _, c := range cells[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}
