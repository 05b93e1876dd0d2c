package netlist

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randomTestNetlist builds a deterministic pseudo-random netlist with a
// dense planted block, exercising matched pairs, singletons and
// self-loop elision.
func randomTestNetlist(t testing.TB, cells, nets int, seed int64) *Netlist {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var b Builder
	b.DropDegenerateNets = true
	b.AddCells(cells)
	for i := 0; i < cells; i++ {
		b.SetCellArea(CellID(i), 0.5+r.Float64())
	}
	for e := 0; e < nets; e++ {
		k := 2 + r.Intn(4)
		pins := make([]CellID, k)
		for i := range pins {
			pins[i] = CellID(r.Intn(cells))
		}
		b.AddNet("", pins...)
	}
	// Dense block over the first tenth of the cells.
	blk := cells / 10
	for e := 0; e < blk*3; e++ {
		k := 2 + r.Intn(3)
		pins := make([]CellID, k)
		for i := range pins {
			pins[i] = CellID(r.Intn(blk))
		}
		b.AddNet("", pins...)
	}
	return b.MustBuild()
}

// fineToCoarse derives the fine→coarse map of the step from level l to
// level l+1 out of its member lists, failing t unless those lists
// partition level l's cells: every member in range and every fine cell
// in exactly one aggregate.
func fineToCoarse(t testing.TB, h *Hierarchy, l int) []CellID {
	t.Helper()
	m := &h.maps[l]
	out := make([]CellID, h.Level(l).NumCells())
	for i := range out {
		out[i] = -1
	}
	for cc := 0; cc+1 < len(m.memOff); cc++ {
		for _, f := range m.members[m.memOff[cc]:m.memOff[cc+1]] {
			if f < 0 || int(f) >= len(out) {
				t.Fatalf("level %d: coarse cell %d holds out-of-range cell %d", l, cc, f)
			}
			if out[f] >= 0 {
				t.Fatalf("level %d: cell %d lies in coarse cells %d and %d", l, f, out[f], cc)
			}
			out[f] = CellID(cc)
		}
	}
	for f, cc := range out {
		if cc < 0 {
			t.Fatalf("level %d: cell %d lies in no coarse cell", l, f)
		}
	}
	return out
}

// checkHierarchyInvariants asserts, for every coarsening step of h:
// the member lists form a partition of the fine cells (disjoint,
// union = all) into one aggregate per coarse cell with at most two
// cells each, area is conserved level to level, the coarse netlist is
// exactly the image of the fine nets (pin aggregation + self-loop
// elision), and the coarse CSR passes Validate.
func checkHierarchyInvariants(t testing.TB, h *Hierarchy) {
	t.Helper()
	for l := 0; l+1 < h.NumLevels(); l++ {
		fine, coarse, m := h.Level(l), h.Level(l+1), &h.maps[l]
		if err := coarse.Validate(); err != nil {
			t.Fatalf("level %d: coarse netlist invalid: %v", l+1, err)
		}

		// Partition, 1-2 cells per aggregate.
		toCoarse := fineToCoarse(t, h, l)
		if len(m.memOff) != coarse.NumCells()+1 {
			t.Fatalf("level %d: %d member runs for %d coarse cells", l, len(m.memOff)-1, coarse.NumCells())
		}
		for cc := 0; cc < coarse.NumCells(); cc++ {
			if k := m.memOff[cc+1] - m.memOff[cc]; k < 1 || k > 2 {
				t.Fatalf("level %d: coarse cell %d has %d members", l, cc, k)
			}
		}

		// Area conservation.
		if fa, ca := fine.TotalArea(), coarse.TotalArea(); math.Abs(fa-ca) > 1e-6*math.Max(1, fa) {
			t.Fatalf("level %d: area not conserved: fine %g coarse %g", l, fa, ca)
		}

		// Pin aggregation: the coarse nets are exactly the fine nets
		// with >= 2 distinct coarse endpoints, in fine net order, each
		// holding the sorted distinct mapped pins.
		cn := 0
		for e := 0; e < fine.NumNets(); e++ {
			set := map[CellID]bool{}
			for _, c := range fine.NetPins(NetID(e)) {
				set[toCoarse[c]] = true
			}
			if len(set) < 2 {
				continue // self-loop: elided
			}
			if cn >= coarse.NumNets() {
				t.Fatalf("level %d: more surviving fine nets than coarse nets", l)
			}
			got := coarse.NetPins(NetID(cn))
			if len(got) != len(set) {
				t.Fatalf("level %d: coarse net %d has %d pins, want %d", l, cn, len(got), len(set))
			}
			for _, p := range got {
				if !set[p] {
					t.Fatalf("level %d: coarse net %d pins unexpected cell %d", l, cn, p)
				}
			}
			if coarse.NetSize(NetID(cn)) > fine.NetSize(NetID(e)) {
				t.Fatalf("level %d: coarse net %d grew: %d > %d pins", l, cn, coarse.NetSize(NetID(cn)), fine.NetSize(NetID(e)))
			}
			cn++
		}
		if cn != coarse.NumNets() {
			t.Fatalf("level %d: %d surviving fine nets but %d coarse nets", l, cn, coarse.NumNets())
		}
	}
}

func TestBuildHierarchyInvariants(t *testing.T) {
	nl := randomTestNetlist(t, 4000, 8000, 7)
	h, err := BuildHierarchy(nl, CoarsenOptions{Levels: 4, MinCells: 100})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatalf("expected at least 2 levels, got %d", h.NumLevels())
	}
	if h.Level(0) != nl {
		t.Fatal("level 0 must be the original netlist")
	}
	for l := 1; l < h.NumLevels(); l++ {
		fineN, coarseN := h.Level(l-1).NumCells(), h.Level(l).NumCells()
		if coarseN >= fineN {
			t.Fatalf("level %d did not shrink: %d -> %d", l, fineN, coarseN)
		}
		t.Logf("level %d: %d cells, %d nets, %d pins", l, coarseN, h.Level(l).NumNets(), h.Level(l).NumPins())
	}
	checkHierarchyInvariants(t, h)
}

// TestHierarchyProjectionRoundTrip checks ExpandDown, one level and
// all the way to level 0, against the forward map: projecting any
// coarse subset down and mapping every resulting cell back up recovers
// exactly the subset, and expansions of disjoint sets stay disjoint.
func TestHierarchyProjectionRoundTrip(t *testing.T) {
	nl := randomTestNetlist(t, 3000, 6000, 11)
	h, err := BuildHierarchy(nl, CoarsenOptions{Levels: 3, MinCells: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 3 {
		t.Fatalf("want 3 levels, got %d", h.NumLevels())
	}
	toFinest := func(l int, cells []CellID) []CellID {
		for ; l > 0; l-- {
			cells = h.ExpandDown(l, cells)
		}
		return cells
	}
	r := rand.New(rand.NewSource(5))
	for l := 1; l < h.NumLevels(); l++ {
		n := h.Level(l).NumCells()
		pick := map[CellID]bool{}
		for len(pick) < n/4 {
			pick[CellID(r.Intn(n))] = true
		}
		var subset []CellID
		for c := range pick {
			subset = append(subset, c)
		}
		down := h.ExpandDown(l, subset)
		// Round trip: every expanded cell maps back into the subset,
		// and expansion counts add up (partition ⇒ no dup, no loss).
		toCoarse := fineToCoarse(t, h, l-1)
		for _, f := range down {
			if !pick[toCoarse[f]] {
				t.Fatalf("level %d: expanded cell %d maps outside the subset", l, f)
			}
		}
		wantLen := 0
		for c := range pick {
			m := &h.maps[l-1]
			wantLen += int(m.memOff[c+1] - m.memOff[c])
		}
		if len(down) != wantLen {
			t.Fatalf("level %d: expansion has %d cells, want %d", l, len(down), wantLen)
		}
		dup := map[CellID]bool{}
		for _, f := range down {
			if dup[f] {
				t.Fatalf("level %d: duplicate cell %d in expansion", l, f)
			}
			dup[f] = true
		}
		// Finest projection of all of level l is all of level 0.
		all := make([]CellID, n)
		for i := range all {
			all[i] = CellID(i)
		}
		if got := toFinest(l, all); len(got) != nl.NumCells() {
			t.Fatalf("level %d: full expansion has %d cells, want %d", l, len(got), nl.NumCells())
		}
	}
	// Representative must be a member of the expansion.
	for l := 1; l < h.NumLevels(); l++ {
		c := CellID(r.Intn(h.Level(l).NumCells()))
		rep := h.RepresentativeAtFinest(l, c)
		found := false
		for _, f := range toFinest(l, []CellID{c}) {
			if f == rep {
				found = true
			}
		}
		if !found {
			t.Fatalf("level %d: representative %d not in expansion of %d", l, rep, c)
		}
	}
}

// TestHierarchyTFBRoundTrip asserts the .tfb binary round-trip holds
// at every level — coarse netlists are ordinary Builder products.
func TestHierarchyTFBRoundTrip(t *testing.T) {
	nl := randomTestNetlist(t, 2000, 4000, 3)
	h, err := BuildHierarchy(nl, CoarsenOptions{Levels: 3, MinCells: 50})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < h.NumLevels(); l++ {
		var buf bytes.Buffer
		if err := h.Level(l).WriteBinary(&buf); err != nil {
			t.Fatalf("level %d: write: %v", l, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("level %d: read: %v", l, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("level %d: round-tripped netlist invalid: %v", l, err)
		}
		a, b := h.Level(l).Stats(), got.Stats()
		if a != b {
			t.Fatalf("level %d: stats changed across round trip: %+v vs %+v", l, a, b)
		}
	}
}

// TestBuildHierarchyStops checks the floor and progress guards.
func TestBuildHierarchyStops(t *testing.T) {
	nl := randomTestNetlist(t, 500, 1000, 9)
	// MinCells above the netlist size: no coarsening happens.
	h, err := BuildHierarchy(nl, CoarsenOptions{Levels: 5, MinCells: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Fatalf("expected 1 level, got %d", h.NumLevels())
	}
	// A netlist with no nets cannot match anything: progress guard.
	var b Builder
	b.AddCells(64)
	iso := b.MustBuild()
	h, err = BuildHierarchy(iso, CoarsenOptions{Levels: 4, MinCells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() != 1 {
		t.Fatalf("isolated cells coarsened: %d levels", h.NumLevels())
	}
	// Empty netlist is a descriptive error.
	if _, err := BuildHierarchy(&Netlist{}, CoarsenOptions{Levels: 2}); err == nil {
		t.Fatal("empty netlist accepted")
	}
}

// TestCoarsenDeterminism: identical inputs must produce identical
// hierarchies (the engine's reproducibility depends on it).
func TestCoarsenDeterminism(t *testing.T) {
	nl := randomTestNetlist(t, 2500, 5000, 13)
	h1, err := BuildHierarchy(nl, CoarsenOptions{Levels: 3, MinCells: 50})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := BuildHierarchy(nl, CoarsenOptions{Levels: 3, MinCells: 50})
	if err != nil {
		t.Fatal(err)
	}
	if h1.NumLevels() != h2.NumLevels() {
		t.Fatalf("level counts differ: %d vs %d", h1.NumLevels(), h2.NumLevels())
	}
	for l := 0; l+1 < h1.NumLevels(); l++ {
		m1, m2 := fineToCoarse(t, h1, l), fineToCoarse(t, h2, l)
		for c := range m1 {
			if m1[c] != m2[c] {
				t.Fatalf("level %d: cell %d maps differently across runs", l, c)
			}
		}
	}
}
