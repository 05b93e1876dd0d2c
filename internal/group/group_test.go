package group

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tanglefind/internal/netlist"
)

func randomNetlist(r *rand.Rand, cells, nets int) *netlist.Netlist {
	var b netlist.Builder
	b.AddCells(cells)
	for i := 0; i < nets; i++ {
		sz := 1 + r.Intn(5)
		pins := make([]netlist.CellID, sz)
		for j := range pins {
			pins[j] = netlist.CellID(r.Intn(cells))
		}
		b.AddNet("", pins...)
	}
	return b.MustBuild()
}

// TestTrackerMatchesBruteForce is the central property test of the
// incremental tracker: after any sequence of adds, Cut and Pins must
// equal the one-shot reference computation.
func TestTrackerMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := randomNetlist(r, 2+r.Intn(40), 1+r.Intn(60))
		tr := NewTracker(nl)
		perm := r.Perm(nl.NumCells())
		addCount := 1 + r.Intn(nl.NumCells())
		for _, c := range perm[:addCount] {
			tr.Add(netlist.CellID(c))
			members := tr.Members()
			wantCut := nl.Cut(members)
			if tr.Cut() != wantCut {
				t.Logf("cut mismatch after %d adds: got %d want %d", tr.Size(), tr.Cut(), wantCut)
				return false
			}
			if tr.Pins() != nl.PinsIn(members) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDeltaCutMatchesAdd: DeltaCut(c) must equal the cut change an
// actual Add produces.
func TestDeltaCutMatchesAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := randomNetlist(r, 2+r.Intn(30), 1+r.Intn(40))
		tr := NewTracker(nl)
		perm := r.Perm(nl.NumCells())
		for _, c := range perm {
			d := tr.DeltaCut(netlist.CellID(c))
			before := tr.Cut()
			tr.Add(netlist.CellID(c))
			if tr.Cut()-before != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTrackerResetReuses(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	nl := randomNetlist(r, 30, 50)
	tr := NewTracker(nl)
	tr.Add(0)
	tr.Add(5)
	firstCut := tr.Cut()
	tr.Reset()
	if tr.Size() != 0 || tr.Cut() != 0 || tr.Pins() != 0 {
		t.Fatal("Reset left state")
	}
	tr.Add(0)
	tr.Add(5)
	if tr.Cut() != firstCut {
		t.Errorf("cut after reset = %d, want %d", tr.Cut(), firstCut)
	}
}

func TestTrackerPanicsOnDoubleAdd(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(2)), 10, 10)
	tr := NewTracker(nl)
	tr.Add(3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double add")
		}
	}()
	tr.Add(3)
}

func TestTrackerSnapshot(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(3)), 20, 30)
	tr := NewTracker(nl)
	tr.Add(1)
	tr.Add(2)
	snap := tr.Snapshot()
	tr.Add(3)
	if snap.Size() != 2 || len(snap.Members) != 2 {
		t.Error("snapshot mutated by later Add")
	}
	if snap.Cut == tr.Cut() && snap.Pins == tr.Pins() && tr.Size() == snap.Size() {
		t.Error("snapshot should differ after Add")
	}
}

// mergeOp is one sorted-merge set operation Phase III's closure runs,
// with the membership rule its map-based reference applies.
type mergeOp struct {
	name  string
	merge func(dst, a, b []netlist.CellID) []netlist.CellID
	keep  func(inA, inB bool) bool
}

var mergeOps = []mergeOp{
	{"MergeUnion", MergeUnion, func(inA, inB bool) bool { return inA || inB }},
	{"MergeIntersect", MergeIntersect, func(inA, inB bool) bool { return inA && inB }},
	{"MergeDifference", MergeDifference, func(inA, inB bool) bool { return inA && !inB }},
}

// check runs the merge on sorted, duplicate-free a and b (ids below
// 64) after a non-empty dst prefix. The result must be that prefix,
// unchanged, followed by exactly the ids keep admits, each once and in
// ascending order — the reference scans the ids upward.
func (op mergeOp) check(t *testing.T, a, b []netlist.CellID) bool {
	t.Helper()
	inA, inB := map[netlist.CellID]bool{}, map[netlist.CellID]bool{}
	for _, c := range a {
		inA[c] = true
	}
	for _, c := range b {
		inB[c] = true
	}
	prefix := []netlist.CellID{-1, 1 << 20}
	want := slices.Clone(prefix)
	for c := netlist.CellID(0); c < 64; c++ {
		if op.keep(inA[c], inB[c]) {
			want = append(want, c)
		}
	}
	if got := op.merge(slices.Clone(prefix), a, b); !slices.Equal(got, want) {
		t.Errorf("%s(%v, %v) after prefix %v = %v, want %v", op.name, a, b, prefix, got, want)
		return false
	}
	return true
}

func TestSetAlgebra(t *testing.T) {
	cases := [][2][]netlist.CellID{
		{{1, 3, 5}, {1, 3, 7}},
		{{1, 3, 7}, {1, 3, 5}},
		{{1, 3}, nil},
		{nil, {2, 4}},
		{{1, 2}, {5, 8, 9}}, // b's tail outlives a
		{{5, 8, 9}, {1, 2}}, // a's tail outlives b
		{{2, 4, 6}, {2, 4, 6}},
		{nil, nil},
	}
	for _, op := range mergeOps {
		for _, c := range cases {
			op.check(t, c[0], c[1])
		}
	}
}

// TestSetAlgebraProperties drives each merge with random sorted,
// duplicate-free sets and checks it against the map reference.
func TestSetAlgebraProperties(t *testing.T) {
	sortedSet := func(v []uint8) []netlist.CellID {
		out := make([]netlist.CellID, len(v))
		for i, x := range v {
			out[i] = netlist.CellID(x % 64)
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	for _, op := range mergeOps {
		f := func(av, bv []uint8) bool {
			return op.check(t, sortedSet(av), sortedSet(bv))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}

// TestEvaluatorMatchesTracker: Eval of a member list equals the
// tracker's incremental result.
func TestEvaluatorMatchesTracker(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nl := randomNetlist(r, 2+r.Intn(40), 1+r.Intn(60))
		tr := NewTracker(nl)
		ev := NewEvaluator(nl)
		perm := r.Perm(nl.NumCells())
		k := 1 + r.Intn(nl.NumCells())
		var members []netlist.CellID
		for _, c := range perm[:k] {
			tr.Add(netlist.CellID(c))
			members = append(members, netlist.CellID(c))
		}
		got := ev.Eval(members)
		return got.Cut == tr.Cut() && got.Pins == tr.Pins() && got.Size() == tr.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEvaluatorToleratesDuplicates(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(5)), 20, 30)
	ev := NewEvaluator(nl)
	a := ev.Eval([]netlist.CellID{1, 2, 3})
	b := ev.Eval([]netlist.CellID{1, 2, 3, 2, 1})
	if a.Cut != b.Cut || a.Pins != b.Pins || a.Size() != b.Size() {
		t.Error("duplicates changed the evaluation")
	}
}

func TestEvaluatorIsReusable(t *testing.T) {
	nl := randomNetlist(rand.New(rand.NewSource(6)), 25, 40)
	ev := NewEvaluator(nl)
	first := ev.Eval([]netlist.CellID{0, 1, 2})
	for i := 0; i < 10; i++ {
		ev.Eval([]netlist.CellID{netlist.CellID(i), netlist.CellID((i + 7) % 25)})
	}
	again := ev.Eval([]netlist.CellID{0, 1, 2})
	if first.Cut != again.Cut || first.Pins != again.Pins {
		t.Error("evaluator state leaked between calls")
	}
}
