package deltatest

import (
	"context"
	"runtime"
	"testing"

	"tanglefind/internal/core"
	"tanglefind/internal/generate"
)

// Parallel-vs-sequential differential: the seed pool's
// bit-identical-to-Workers=1 guarantee, locked across the whole
// feature matrix — flat, multilevel, incremental and sharded+merged
// runs. Every mode runs once at Workers=1 and once at the parallel
// width, and the outputs must agree to 1e-9 via the same DiffResults
// oracle the delta pipeline is specified by. The CI race shard runs
// this file under -race, so workers racing on shared state (rather
// than merely running seeds in another order) are caught even when
// the outputs happen to match.

// parallelWidth is the concurrent side of every differential: NumCPU,
// floored at 4 so the workers genuinely contend for the shared seed
// counter on small CI boxes too — goroutines interleave (and
// race-instrument) under any GOMAXPROCS.
func parallelWidth() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	width := parallelWidth()

	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 400}, {Size: 250}},
		Seed:   31,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist

	flat := core.DefaultOptions()
	flat.Seeds = 24
	flat.MaxOrderLen = 800

	multi := flat
	multi.Levels = 3
	multi.MinCoarseCells = 512 // let a 6K-cell workload actually coarsen

	find := func(t *testing.T, opt core.Options, workers int) *core.Result {
		t.Helper()
		f, err := core.NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = workers
		res, err := f.Find(ctx, opt)
		if err != nil {
			t.Fatalf("find (workers=%d): %v", workers, err)
		}
		return res
	}

	// checkSched asserts the parallel run really exercised the pool —
	// a differential against an accidentally sequential run proves
	// nothing.
	checkSched := func(t *testing.T, res *core.Result, workers int) {
		t.Helper()
		if res.Sched == nil {
			t.Fatal("parallel run reported no schedule stats")
		}
		if res.Sched.Workers != workers {
			t.Fatalf("schedule ran %d workers, want %d", res.Sched.Workers, workers)
		}
	}

	for _, tc := range []struct {
		name string
		opt  core.Options
	}{
		{"flat", flat},
		{"multilevel", multi},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq := find(t, tc.opt, 1)
			par := find(t, tc.opt, width)
			checkSched(t, par, width)
			if err := DiffResults(seq, par, 1e-9); err != nil {
				t.Fatalf("workers=%d diverged from workers=1: %v", width, err)
			}
		})

		t.Run(tc.name+"_sharded", func(t *testing.T) {
			seq := find(t, tc.opt, 1)
			f, err := core.NewFinder(nl)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Workers = width
			mid := opt.Seeds / 2
			// Out-of-order shard completion is the production shape.
			hiShard, err := f.FindShard(ctx, opt, mid, opt.Seeds)
			if err != nil {
				t.Fatal(err)
			}
			loShard, err := f.FindShard(ctx, opt, 0, mid)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := f.Merge(opt, hiShard, loShard)
			if err != nil {
				t.Fatal(err)
			}
			if err := DiffResults(seq, merged, 1e-9); err != nil {
				t.Fatalf("parallel sharded+merged diverged from sequential whole run: %v", err)
			}
		})

		t.Run(tc.name+"_incremental", func(t *testing.T) {
			opt := tc.opt
			opt.RecordIncremental = true
			// Record the previous run under the parallel width too: the
			// captured seed state must be schedule-independent.
			prev := find(t, opt, width)
			if prev.IncrState == nil {
				t.Fatal("recorded run carries no incremental state")
			}
			// One reconnect that keeps the multilevel hierarchy's coarse
			// diff local, so both modes replay rather than fall back.
			d := NewGen(2).Reconnect(nl, 1)
			if d.Empty() {
				t.Fatal("empty edit")
			}
			patched, eff, err := d.Apply(nl)
			if err != nil {
				t.Fatal(err)
			}
			incr := func(workers int) *core.Result {
				f, err := core.NewFinder(patched)
				if err != nil {
					t.Fatal(err)
				}
				runOpt := opt
				runOpt.Workers = workers
				res, err := f.FindIncremental(ctx, runOpt, prev, eff.Dirty)
				if err != nil {
					t.Fatalf("incremental (workers=%d): %v", workers, err)
				}
				// Two full runs prove nothing about the replay path.
				if st := res.Incremental; st == nil || st.FullFallback || st.ReusedSeeds == 0 {
					t.Fatalf("incremental (workers=%d) replayed nothing: %+v", workers, st)
				}
				return res
			}
			seq := incr(1)
			par := incr(width)
			if err := DiffResults(seq, par, 1e-9); err != nil {
				t.Fatalf("parallel incremental diverged from sequential: %v", err)
			}
		})
	}
}
