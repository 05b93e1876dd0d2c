package netlist

import "fmt"

// This file implements multilevel coarsening of the hypergraph: the
// substrate of the coarsen → detect → project + refine detection
// pipeline. One coarsening step contracts a heavy-edge matching of the
// clique-expansion graph — every cell pairs with the unmatched
// neighbor it shares the most connection weight with — which roughly
// halves the cell count while preserving exactly the dense local
// connectivity the tangled-logic metrics key on. Repeating the step
// yields a Hierarchy: a pyramid of netlists whose coarsest member is
// small enough that full seed-and-grow detection costs a fraction of a
// flat run, plus the projection maps needed to carry detected groups
// back down to the original cells.
//
// Every coarse netlist is produced by the ordinary two-pass Builder,
// so the CSR invariants (Validate) and the .tfnet/.tfb round-trips
// hold at every level. Nets whose pins collapse into a single coarse
// cell become self-loops and are elided (Builder.DropDegenerateNets);
// cell areas aggregate by summation so TotalArea is conserved level to
// level. Coarsening is fully deterministic: matching visits cells in
// ascending id order and breaks weight ties toward the smallest
// neighbor id.

// CoarsenOptions configures BuildHierarchy. The zero value of every
// field selects a documented default.
type CoarsenOptions struct {
	// Levels is the total number of levels including the finest
	// original netlist (so Levels=1 means no coarsening at all).
	// Values < 1 are treated as 1.
	Levels int
	// MinCells stops coarsening once a level has at most this many
	// cells — detection on a tiny coarse netlist has nothing left to
	// contrast candidate groups against. 0 means DefaultMinCoarseCells.
	MinCells int
}

// DefaultMinCoarseCells is the coarsening floor when
// CoarsenOptions.MinCells is zero.
const DefaultMinCoarseCells = 2500

// coarsenMaxNet is the matching's net-size cutoff: larger nets carry
// almost no clustering signal and their clique expansion is quadratic,
// so the matching skips them.
const coarsenMaxNet = 64

// levelMap records one coarsening step: how the cells of level l
// (fine) aggregate into the cells of level l+1 (coarse). It keeps only
// the coarse→fine direction projection reads; the fine→coarse map
// lives only while coarsenStep builds the coarse netlist.
type levelMap struct {
	memOff  []int32  // len = coarse NumCells+1; CSR into members
	members []CellID // fine ids grouped by coarse id, ascending per run
}

// Hierarchy is a pyramid of coarsened netlists. Level 0 is the
// original netlist; level NumLevels()-1 is the coarsest. A Hierarchy
// is immutable and safe for concurrent use.
type Hierarchy struct {
	levels []*Netlist
	maps   []levelMap // maps[l] connects level l (fine) to level l+1 (coarse)
}

// BuildHierarchy coarsens nl into at most o.Levels levels. It stops
// early when a level reaches o.MinCells cells or a matching step stops
// making progress (almost nothing left to contract), so the returned
// hierarchy may be shallower than requested; it always contains at
// least the original netlist at level 0.
func BuildHierarchy(nl *Netlist, o CoarsenOptions) (*Hierarchy, error) {
	if nl == nil || nl.NumCells() == 0 {
		return nil, fmt.Errorf("netlist: cannot coarsen an empty netlist")
	}
	if o.Levels < 1 {
		o.Levels = 1
	}
	if o.MinCells == 0 {
		o.MinCells = DefaultMinCoarseCells
	}
	h := &Hierarchy{levels: []*Netlist{nl}}
	for len(h.levels) < o.Levels {
		fine := h.levels[len(h.levels)-1]
		if fine.NumCells() <= o.MinCells {
			break
		}
		coarse, m, err := coarsenStep(fine)
		if err != nil {
			return nil, err
		}
		// A step that barely contracts (pathologically sparse or
		// disconnected graphs) would stack near-identical levels; stop.
		if coarse.NumCells() > fine.NumCells()*19/20 {
			break
		}
		h.levels = append(h.levels, coarse)
		h.maps = append(h.maps, m)
	}
	return h, nil
}

// NumLevels returns the number of levels, the original included.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// Level returns the netlist at level l (0 = original/finest).
func (h *Hierarchy) Level(l int) *Netlist { return h.levels[l] }

// MemoryFootprint estimates the bytes the hierarchy retains beyond its
// original netlist: every coarse level plus the projection maps that
// connect the levels.
func (h *Hierarchy) MemoryFootprint() int64 {
	var b int64
	for _, nl := range h.levels[1:] {
		b += nl.MemoryFootprint()
	}
	for _, m := range h.maps {
		b += int64(len(m.memOff))*4 + int64(len(m.members))*4
	}
	return b
}

// ExpandDown projects level-l cells one level down, to level l-1. The
// result is duplicate-free when cells is duplicate-free (aggregates
// partition the finer level) but not sorted: members follow the input
// order, and a pair's second member can exceed a later aggregate's
// cells.
func (h *Hierarchy) ExpandDown(l int, cells []CellID) []CellID {
	m := &h.maps[l-1]
	total := 0
	for _, c := range cells {
		total += int(m.memOff[c+1] - m.memOff[c])
	}
	out := make([]CellID, 0, total)
	for _, c := range cells {
		out = append(out, m.members[m.memOff[c]:m.memOff[c+1]]...)
	}
	return out
}

// RepresentativeAtFinest maps one level-l cell to a single level-0
// representative (the smallest-id constituent), for reporting fields
// that carry one cell, like a GTL's seed.
func (h *Hierarchy) RepresentativeAtFinest(l int, c CellID) CellID {
	for ; l > 0; l-- {
		m := &h.maps[l-1]
		best := m.members[m.memOff[c]]
		for _, f := range m.members[m.memOff[c]:m.memOff[c+1]] {
			if f < best {
				best = f
			}
		}
		c = best
	}
	return c
}

// coarsenStep contracts one heavy-edge matching of nl, returning the
// coarse netlist and the step's aggregation map. Deterministic for a
// fixed input.
//
// The matching accumulates clique-expansion weights (each net e of at
// most coarsenMaxNet pins contributes 1/(|e|-1) between every pair of
// its cells) directly off the net-side CSR, one cell at a time with an
// epoch-free scatter buffer — it never materializes the expanded
// graph. Only each cell's best unmatched neighbor is needed, so
// building and sorting tens of millions of expanded edges would be
// pure overhead; the direct walk is O(Σ_c Σ_{e∋c} |e|) with two
// O(cells) scratch arrays.
func coarsenStep(nl *Netlist) (*Netlist, levelMap, error) {
	n := nl.NumCells()

	// Heavy-edge matching: visit cells in ascending id order; each
	// unmatched cell grabs its heaviest unmatched neighbor, breaking
	// weight ties toward the smallest neighbor id.
	match := make([]CellID, n)
	for i := range match {
		match[i] = -1
	}
	weight := make([]float64, n) // scatter buffer, zeroed after each cell
	var touched []CellID
	for c := 0; c < n; c++ {
		if match[c] >= 0 {
			continue
		}
		touched = touched[:0]
		for _, e := range nl.CellPins(CellID(c)) {
			k := nl.NetSize(e)
			if k < 2 || k > coarsenMaxNet {
				continue
			}
			we := 1.0 / float64(k-1)
			for _, nb := range nl.NetPins(e) {
				if int(nb) == c || match[nb] >= 0 {
					continue
				}
				if weight[nb] == 0 {
					touched = append(touched, nb)
				}
				weight[nb] += we
			}
		}
		best, bestW := CellID(-1), 0.0
		for _, nb := range touched {
			if w := weight[nb]; w > bestW || (w == bestW && best >= 0 && nb < best) {
				best, bestW = nb, w
			}
			weight[nb] = 0
		}
		if best >= 0 {
			match[c], match[best] = best, CellID(c)
		} else {
			match[c] = CellID(c)
		}
	}

	// Assign coarse ids in ascending order of each pair's smaller fine
	// id, so coarse id order follows fine id order (keeps pin runs easy
	// to reason about and the step deterministic).
	fineToCoarse := make([]CellID, n)
	numCoarse := 0
	for c := 0; c < n; c++ {
		if int(match[c]) >= c { // c is its pair's representative
			id := CellID(numCoarse)
			numCoarse++
			fineToCoarse[c] = id
			if match[c] != CellID(c) {
				fineToCoarse[match[c]] = id
			}
		}
	}
	var m levelMap
	m.memOff = make([]int32, numCoarse+1)
	for c := 0; c < n; c++ {
		m.memOff[fineToCoarse[c]+1]++
	}
	for i := 0; i < numCoarse; i++ {
		m.memOff[i+1] += m.memOff[i]
	}
	m.members = make([]CellID, n)
	cursor := make([]int32, numCoarse)
	for c := 0; c < n; c++ {
		cc := fineToCoarse[c]
		m.members[m.memOff[cc]+cursor[cc]] = CellID(c)
		cursor[cc]++
	}

	// Build the coarse netlist with the ordinary two-pass Builder:
	// areas aggregate by summation, every fine net maps through the
	// matching (Builder dedupes pins that collapse onto one coarse
	// cell), and nets left with a single distinct coarse pin are
	// self-loops that DropDegenerateNets elides.
	var b Builder
	b.DropDegenerateNets = true
	b.grow(nl.NumPins(), nl.NumNets())
	b.AddCells(numCoarse)
	for cc := 0; cc < numCoarse; cc++ {
		area := 0.0
		for _, f := range m.members[m.memOff[cc]:m.memOff[cc+1]] {
			area += nl.CellArea(f)
		}
		b.SetCellArea(CellID(cc), area)
	}
	mapped := make([]CellID, 0, 64)
	for e := 0; e < nl.NumNets(); e++ {
		pins := nl.NetPins(NetID(e))
		mapped = mapped[:0]
		for _, c := range pins {
			mapped = append(mapped, fineToCoarse[c])
		}
		b.AddNet("", mapped...)
	}
	coarse, err := b.Build()
	if err != nil {
		return nil, levelMap{}, fmt.Errorf("netlist: coarsen: %w", err)
	}
	return coarse, m, nil
}
