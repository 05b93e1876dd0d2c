package core

import (
	"context"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// TestGrowAllocGuard pins the hot-path overhaul's zero-allocation
// contract: once a worker's buffers are warm, Phase I growth performs
// no heap allocations per seed — on the flat engine over narrow nets
// and over wide ones, and on a multilevel run's coarse sub-engine.
// (Replay and candidate extraction allocate by design —
// Eval copies members out of the grower's reusable buffers — so the
// guard targets grow, the per-seed O(Σ|e|) loop.)
//
// A regression here is what the BENCH_hotpath "zero steady-state
// allocations" claim rests on; testing.AllocsPerRun makes it a test
// instead of a benchmark eyeball.

func allocWorkload(t *testing.T) *generate.RandomGraph {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  4000,
		Blocks: []generate.BlockSpec{{Size: 300}, {Size: 200}},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

// growAllocs warms a worker over a spread of seeds, then measures
// steady-state allocations per grow call.
func growAllocs(t *testing.T, f *Finder, opt *Options) float64 {
	t.Helper()
	n := f.nl.NumCells()
	seeds := []netlist.CellID{0, netlist.CellID(n / 3), netlist.CellID(2 * n / 3), netlist.CellID(n - 1)}
	maxLen := 400
	if maxLen > n {
		maxLen = n
	}
	ws := f.acquire(opt)
	defer f.release(ws)
	for _, s := range seeds {
		ws.gr.grow(s, maxLen)
	}
	i := 0
	return testing.AllocsPerRun(20, func() {
		ws.gr.grow(seeds[i%len(seeds)], maxLen)
		i++
	})
}

func TestGrowAllocGuard(t *testing.T) {
	rg := allocWorkload(t)
	nl := rg.Netlist
	opt := DefaultOptions()

	t.Run("flat", func(t *testing.T) {
		f, err := NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		if got := growAllocs(t, f, &opt); got != 0 {
			t.Fatalf("steady-state grow allocates %.1f objects/seed, want 0", got)
		}
	})

	t.Run("widenet", func(t *testing.T) {
		f, err := NewFinder(withWideNets(t, rg))
		if err != nil {
			t.Fatal(err)
		}
		if got := growAllocs(t, f, &opt); got != 0 {
			t.Fatalf("steady-state wide-net grow allocates %.1f objects/seed, want 0", got)
		}
	})

	t.Run("multilevel_coarse", func(t *testing.T) {
		f, err := NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		mopt := opt
		mopt.Levels = 3
		mopt.MinCoarseCells = 512
		mopt.Seeds = 4
		mopt.MaxOrderLen = 200
		if _, err := f.Find(context.Background(), mopt); err != nil {
			t.Fatal(err)
		}
		states := f.mlStates()
		if len(states) == 0 {
			t.Fatal("multilevel run cached no hierarchy")
		}
		top := states[0].finders[states[0].hier.NumLevels()-1]
		if top == f {
			t.Fatal("hierarchy did not coarsen")
		}
		if got := growAllocs(t, top, &opt); got != 0 {
			t.Fatalf("steady-state coarse grow allocates %.1f objects/seed, want 0", got)
		}
	})
}
