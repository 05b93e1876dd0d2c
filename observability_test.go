// The stage-timing overhead guard. The instrumentation only reads
// clocks — it must never change results, and its cost on the hot path
// must stay under 2% of the BenchmarkFind_Parallel workload. The
// structural half runs everywhere; the live timing comparison needs a
// machine with real cores on which min-of-N is stable, and skips
// loudly otherwise (CI's multi-core runners execute it).
package tanglefind_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"tanglefind"
	"tanglefind/internal/core"
	"tanglefind/internal/generate"
)

// overheadWorkload is a shrunk BenchmarkFind_Parallel: same shape
// (two planted blocks, multilevel), sized so min-of-N fits a test run.
func overheadWorkload(t testing.TB) (*core.Finder, core.Options) {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  30_000,
		Blocks: []generate.BlockSpec{{Size: 2000}, {Size: 2000}},
		Seed:   19,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 24
	opt.MaxOrderLen = 3000
	opt.Levels = 2
	opt.MinCoarseCells = 4096
	return f, opt
}

func TestStageTimingOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison is not short")
	}
	f, opt := overheadWorkload(t)
	ctx := context.Background()

	// Structural half: timing defaults on, the facade toggle works,
	// and the toggle never changes detection results.
	if !core.StageTimingEnabled() {
		t.Fatal("stage timing must default on")
	}
	on, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	var stages tanglefind.StageTimings = on.Stages
	if len(stages) == 0 || stages[core.StageGrow] <= 0 {
		t.Fatalf("instrumented run has no stage breakdown: %v", stages)
	}
	if prev := tanglefind.SetStageTiming(false); !prev {
		t.Fatal("facade toggle did not report the enabled default")
	}
	defer tanglefind.SetStageTiming(true)
	off, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(on.GTLs) != len(off.GTLs) {
		t.Fatalf("timing toggle changed results: %d vs %d GTLs", len(on.GTLs), len(off.GTLs))
	}
	for i := range on.GTLs {
		if on.GTLs[i].Score != off.GTLs[i].Score {
			t.Fatalf("timing toggle changed GTL %d score", i)
		}
	}

	// Live half: min-of-N wall time with timing on must stay within 2%
	// of timing off. Minimum-of filters scheduler noise; a single-core
	// box cannot produce a stable minimum under its own test harness.
	if runtime.NumCPU() < 2 {
		t.Skipf("SKIPPING live overhead comparison: %d CPU is too noisy for a 2%% bound; CI's multi-core runners enforce it", runtime.NumCPU())
	}
	timedRun := func(timed bool) time.Duration {
		prev := core.SetStageTiming(timed)
		defer core.SetStageTiming(prev)
		start := time.Now()
		if _, err := f.Find(ctx, opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// One warm-up run fills the shared worker-state pool and caches
	// the hierarchy for both sides. The measured runs then alternate
	// timed and untimed — swapping which goes first in each pair — so
	// drift in machine load over the test (other packages' tests,
	// frequency scaling) lands on both minimums alike instead of on
	// whichever block ran second.
	timedRun(true)
	onBest := time.Duration(1<<63 - 1)
	offBest := onBest
	for i := 0; i < 5; i++ {
		first := i%2 == 0
		for _, timed := range []bool{first, !first} {
			if d := timedRun(timed); timed {
				onBest = min(onBest, d)
			} else {
				offBest = min(offBest, d)
			}
		}
	}
	overhead := float64(onBest-offBest) / float64(offBest)
	t.Logf("timing on %v, off %v, overhead %.2f%%", onBest, offBest, overhead*100)
	if overhead > 0.02 {
		t.Errorf("stage timing costs %.2f%% (> 2%% budget): on %v vs off %v", overhead*100, onBest, offBest)
	}
}
