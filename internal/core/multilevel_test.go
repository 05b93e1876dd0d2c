package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// TestLevelsOneBitIdentical is the multilevel golden guarantee:
// Levels=1 (and the zero value 0) must reproduce the flat pipeline's
// results bit-identically — same GTL member sets, same traces — on
// the same workloads the engine golden test locks down.
func TestLevelsOneBitIdentical(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  12000,
		Blocks: []generate.BlockSpec{{Size: 900}},
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	flat := DefaultOptions()
	flat.Seeds = 40
	flat.MaxOrderLen = 3600
	flat.RandSeed = 42

	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := f.Find(context.Background(), flat)
	if err != nil {
		t.Fatal(err)
	}
	for _, levels := range []int{0, 1} {
		opt := flat
		opt.Levels = levels
		got, err := f.Find(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if gtlHash(got) != gtlHash(ref) {
			t.Errorf("Levels=%d result differs from flat run", levels)
		}
		if got.Levels != nil {
			t.Errorf("Levels=%d: flat run carries level stats %+v", levels, got.Levels)
		}
		if len(got.Seeds) != len(ref.Seeds) {
			t.Errorf("Levels=%d: trace count %d != flat %d", levels, len(got.Seeds), len(ref.Seeds))
		}
	}
}

// TestMultilevelRecoversPlantedBlocks checks the quality half of the
// pipeline's contract: with Levels>=2 the detector must still recover
// the overwhelming majority of planted-GTL cells.
func TestMultilevelRecoversPlantedBlocks(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  40_000,
		Blocks: []generate.BlockSpec{{Size: 2500}, {Size: 1800}},
		Seed:   21,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 64
	opt.MaxOrderLen = 10_000
	opt.RandSeed = 21
	opt.Levels = 3
	opt.MinCoarseCells = 2000

	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 2 {
		t.Fatalf("multilevel run reports %d level entries; hierarchy did not form", len(res.Levels))
	}
	if res.Levels[0].SeedsRun == 0 {
		t.Error("coarsest level ran no seeds")
	}
	planted, recovered := 0, 0
	for _, truth := range rg.Blocks {
		planted += len(truth)
		if m := bestMatch(truth, res.GTLs); m != nil {
			missed, _ := matchBlock(truth, m.Members)
			recovered += len(truth) - missed
		}
	}
	frac := float64(recovered) / float64(planted)
	t.Logf("multilevel recovery: %d/%d planted cells (%.1f%%), %d GTLs, levels=%d",
		recovered, planted, 100*frac, len(res.GTLs), len(res.Levels))
	if frac < 0.9 {
		t.Errorf("recovered only %.1f%% of planted cells; want >= 90%%", 100*frac)
	}

	// Determinism: the multilevel pipeline must reproduce itself.
	res2, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if gtlHash(res) != gtlHash(res2) {
		t.Error("multilevel run not deterministic")
	}
}

// TestMultilevelOptionValidation covers the new fields' bounds.
func TestMultilevelOptionValidation(t *testing.T) {
	var b netlist.Builder
	b.AddCells(16)
	for i := 0; i < 15; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID(i+1))
	}
	nl := b.MustBuild()
	for _, tc := range []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"negative levels", func(o *Options) { o.Levels = -1 }, "Levels"},
		{"absurd levels", func(o *Options) { o.Levels = 40 }, "Levels"},
		{"negative min coarse", func(o *Options) { o.MinCoarseCells = -5 }, "MinCoarseCells"},
		{"negative refine radius", func(o *Options) { o.RefineRadius = -1 }, "RefineRadius"},
	} {
		opt := DefaultOptions()
		tc.mutate(&opt)
		if _, err := Find(nl, opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

// TestMultilevelTinyNetlistFallsBack: when the netlist is already at
// or below the coarsening floor, Levels>1 must degrade gracefully to
// the flat pipeline instead of failing.
func TestMultilevelTinyNetlistFallsBack(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  2000,
		Blocks: []generate.BlockSpec{{Size: 300}},
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 24
	opt.MaxOrderLen = 900
	opt.Levels = 3 // floor (default 2500) exceeds the netlist size

	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Levels = 1
	flat, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if gtlHash(ml) != gtlHash(flat) {
		t.Error("degenerate multilevel run differs from flat run")
	}
}

// TestSharedPoolBound covers the process-wide worker-state pool:
// however many engines run at once and however many workers each asks
// for, at most GOMAXPROCS idle states are retained afterwards; engines
// themselves retain no scratch (MemoryEstimate and CachedPins count
// only cached hierarchies); and pool churn across netlists never
// changes results.
func TestSharedPoolBound(t *testing.T) {
	var finders []*Finder
	for i, cells := range []int{6000, 2500, 9000} {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
			Cells:  cells,
			Blocks: []generate.BlockSpec{{Size: 400}},
			Seed:   uint64(3 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFinder(rg.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		finders = append(finders, f)
	}
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 1200
	opt.Workers = 4
	mlOpt := opt
	mlOpt.Levels = 2
	mlOpt.MinCoarseCells = 500

	want := make([]uint64, len(finders))
	for i, f := range finders {
		res, err := f.Find(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = gtlHash(res)
	}
	if b := finders[0].MemoryEstimate(); b != 0 {
		t.Errorf("flat engine MemoryEstimate = %d; want 0 (scratch lives in the shared pool)", b)
	}
	if p := finders[0].CachedPins(); p != 0 {
		t.Errorf("flat engine CachedPins = %d; want 0 (no hierarchy cached)", p)
	}

	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, f := range finders {
			wg.Add(2)
			go func() {
				defer wg.Done()
				res, err := f.Find(context.Background(), opt)
				if err != nil {
					t.Error(err)
					return
				}
				if got := gtlHash(res); got != want[i] {
					t.Errorf("engine %d: result changed under pool churn", i)
				}
			}()
			go func() {
				defer wg.Done()
				if _, err := f.Find(context.Background(), mlOpt); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		idle.mu.Lock()
		n := len(idle.free)
		idle.mu.Unlock()
		if n > runtime.GOMAXPROCS(0) {
			t.Fatalf("shared pool holds %d idle states, want at most GOMAXPROCS=%d", n, runtime.GOMAXPROCS(0))
		}
		if n == 0 || PooledScratchBytes() <= 0 {
			t.Fatalf("shared pool empty after runs (%d states, %d bytes)", n, PooledScratchBytes())
		}
	}
	// The engine caches exactly the hierarchy BuildHierarchy makes for
	// the run's coarsening options: its coarse pins and its footprint.
	h, err := netlist.BuildHierarchy(finders[0].Netlist(), netlist.CoarsenOptions{Levels: mlOpt.Levels, MinCells: mlOpt.MinCoarseCells})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumLevels() < 2 {
		t.Fatalf("hierarchy has %d levels; want a coarse level", h.NumLevels())
	}
	var coarsePins int64
	for l := 1; l < h.NumLevels(); l++ {
		coarsePins += int64(h.Level(l).NumPins())
	}
	if p := finders[0].CachedPins(); p != coarsePins {
		t.Errorf("CachedPins = %d after a multilevel run; want the hierarchy's %d coarse pins", p, coarsePins)
	}
	if b, want := finders[0].MemoryEstimate(), h.MemoryFootprint(); b != want {
		t.Errorf("MemoryEstimate = %d after a multilevel run; want the hierarchy's footprint %d", b, want)
	}
}
