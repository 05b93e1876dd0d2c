package core

import (
	"math"
	"testing"

	"tanglefind/internal/netlist"
)

// weightOf computes the paper's connection weight of candidate v to the
// group by brute force: Σ_{e ∋ v, e∩S≠∅} 1/(|e| − |e∩S| + 1).
func weightOf(nl *netlist.Netlist, in map[netlist.CellID]bool, v netlist.CellID) float64 {
	w := 0.0
	for _, e := range nl.CellPins(v) {
		inside := 0
		for _, c := range nl.NetPins(e) {
			if in[c] {
				inside++
			}
		}
		if inside == 0 {
			continue
		}
		lambda := nl.NetSize(e) - inside
		w += 1.0 / float64(lambda+1)
	}
	return w
}

// TestWeightedOrderingIsGreedy verifies Phase I against a brute-force
// reference: at every step the added cell has the maximum connection
// weight among all frontier cells (ties resolved by min cut delta are
// allowed — we only check weight optimality).
func TestWeightedOrderingIsGreedy(t *testing.T) {
	var b netlist.Builder
	b.AddCells(60)
	// An irregular small graph: ring + chords + a few 3-pin nets.
	for i := 0; i < 60; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID((i+1)%60))
		if i%3 == 0 {
			b.AddNet("", netlist.CellID(i), netlist.CellID((i+7)%60), netlist.CellID((i+13)%60))
		}
	}
	nl := b.MustBuild()
	opt := DefaultOptions()
	opt.BigNetSkip = 0 // exact weights for the reference comparison
	ord := GrowOrdering(nl, 0, 40, opt)
	if ord.Len() != 40 {
		t.Fatalf("ordering length %d", ord.Len())
	}
	in := map[netlist.CellID]bool{ord.Members[0]: true}
	for step := 1; step < ord.Len(); step++ {
		picked := ord.Members[step]
		pickedW := weightOf(nl, in, picked)
		// No other outside cell may beat the picked weight.
		for c := 0; c < nl.NumCells(); c++ {
			id := netlist.CellID(c)
			if in[id] || id == picked {
				continue
			}
			if w := weightOf(nl, in, id); w > pickedW+1e-9 {
				t.Fatalf("step %d picked %d (w=%.4f) but %d has w=%.4f",
					step, picked, pickedW, id, w)
			}
		}
		in[picked] = true
	}
}

// TestOrderingTieBreakPrefersMinCut: among equal-weight candidates the
// one whose addition increases the cut least must win.
func TestOrderingTieBreakPrefersMinCut(t *testing.T) {
	// Seed s; two candidates a and b each share one 2-pin net with s
	// (equal weight 1/2). a has 3 extra private nets (cut +3+...),
	// b has 1 (cut +1). b must be added first.
	var b netlist.Builder
	s := b.AddCell("s")
	a := b.AddCell("a")
	bb := b.AddCell("b")
	others := b.AddCells(8)
	b.AddNet("", s, a)
	b.AddNet("", s, bb)
	b.AddNet("", a, others+0)
	b.AddNet("", a, others+1)
	b.AddNet("", a, others+2)
	b.AddNet("", bb, others+3)
	nl := b.MustBuild()
	ord := GrowOrdering(nl, s, 3, DefaultOptions())
	if ord.Members[1] != bb {
		t.Errorf("second cell = %d, want b=%d (min cut tie-break)", ord.Members[1], bb)
	}
}

func TestOrderingStopsAtComponentBoundary(t *testing.T) {
	var b netlist.Builder
	b.AddCells(10)
	// Two components: 0-1-2 and 3..9.
	b.AddNet("", 0, 1)
	b.AddNet("", 1, 2)
	for i := 3; i < 9; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID(i+1))
	}
	nl := b.MustBuild()
	ord := GrowOrdering(nl, 0, 10, DefaultOptions())
	if ord.Len() != 3 {
		t.Errorf("ordering escaped the component: len %d, want 3", ord.Len())
	}
}

func TestOrderingCutsMatchTrackerSemantics(t *testing.T) {
	var b netlist.Builder
	b.AddCells(4)
	b.AddNet("", 0, 1)
	b.AddNet("", 1, 2)
	b.AddNet("", 2, 3)
	nl := b.MustBuild()
	ord := GrowOrdering(nl, 0, 4, DefaultOptions())
	// Chain absorbed in order: cuts must be 1,1,1,0.
	want := []int32{1, 1, 1, 0}
	for i, w := range want {
		if ord.Cuts[i] != w {
			t.Errorf("cut[%d] = %d, want %d (%v)", i, ord.Cuts[i], w, ord.Cuts)
		}
	}
	if pins := prefixPins(nl, ord); pins[3] != 6 {
		t.Errorf("pins[3] = %d, want 6", pins[3])
	}
}

func TestBigNetSkipLimitsFrontier(t *testing.T) {
	// A star net with 30 pins: with BigNetSkip 20, growing from the
	// hub must not pull in the leaves (their only connection is the
	// big net); with skip disabled it must.
	var b netlist.Builder
	hub := b.AddCell("hub")
	leaves := b.AddCells(30)
	pins := []netlist.CellID{hub}
	for i := 0; i < 30; i++ {
		pins = append(pins, leaves+netlist.CellID(i))
	}
	b.AddNet("star", pins...)
	// A small 2-pin chain from the hub so there is something to grow.
	chain := b.AddCells(3)
	b.AddNet("", hub, chain)
	b.AddNet("", chain, chain+1)
	b.AddNet("", chain+1, chain+2)
	nl := b.MustBuild()

	opt := DefaultOptions() // BigNetSkip = 20
	ord := GrowOrdering(nl, hub, 10, opt)
	if ord.Len() != 4 {
		t.Errorf("with skip: ordering len %d, want 4 (hub + chain only)", ord.Len())
	}
	opt.BigNetSkip = 0
	ord = GrowOrdering(nl, hub, 10, opt)
	if ord.Len() != 10 {
		t.Errorf("without skip: ordering len %d, want 10", ord.Len())
	}
}

func TestFindValidatesOptions(t *testing.T) {
	var b netlist.Builder
	b.AddCells(4)
	b.AddNet("", 0, 1)
	nl := b.MustBuild()
	opt := DefaultOptions()
	opt.Seeds = 0
	if _, err := Find(nl, opt); err == nil {
		t.Error("Seeds=0 accepted")
	}
	opt = DefaultOptions()
	opt.MaxOrderLen = 1
	if _, err := Find(nl, opt); err == nil {
		t.Error("MaxOrderLen=1 accepted")
	}
	if _, err := Find(&netlist.Netlist{}, DefaultOptions()); err == nil {
		t.Error("empty netlist accepted")
	}
}

// TestFindDeterministic: identical options and seed give bit-identical
// results regardless of scheduling.
func TestFindDeterministic(t *testing.T) {
	var b netlist.Builder
	n := 3000
	b.AddCells(n)
	for i := 0; i < n-1; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID(i+1))
		b.AddNet("", netlist.CellID(i), netlist.CellID((i*7+13)%n))
	}
	// A small dense block.
	for i := 0; i < 200; i++ {
		b.AddNet("", netlist.CellID(i%100), netlist.CellID((i*3+1)%100), netlist.CellID((i*5+2)%100))
	}
	nl := b.MustBuild()
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 500
	run := func(workers int) []GTL {
		o := opt
		o.Workers = workers
		res, err := Find(nl, o)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.AG) || res.AG <= 0 {
			t.Errorf("workers=%d: AG = %v", workers, res.AG)
		}
		return res.GTLs
	}
	a, c := run(1), run(4)
	if len(a) != len(c) {
		t.Fatalf("worker count changed result: %d vs %d GTLs", len(a), len(c))
	}
	for i := range a {
		if a[i].Size() != c[i].Size() || a[i].Cut != c[i].Cut || a[i].Score != c[i].Score {
			t.Fatalf("GTL %d differs across worker counts", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j] != c[i].Members[j] {
				t.Fatalf("GTL %d member %d differs", i, j)
			}
		}
	}
}

func TestMetricAndOrderingStrings(t *testing.T) {
	if MetricGTLSD.String() != "GTL-SD" || MetricNGTLS.String() != "nGTL-S" {
		t.Error("metric names wrong")
	}
	if Metric(99).String() != "unknown" {
		t.Error("unknown metric name wrong")
	}
	if OrderWeighted.String() != "weighted" || OrderMinCut.String() != "mincut" || OrderBFS.String() != "bfs" {
		t.Error("ordering names wrong")
	}
	if Ordering(99).String() != "unknown" {
		t.Error("unknown ordering name wrong")
	}
}
