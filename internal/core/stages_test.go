package core

import (
	"context"
	"encoding/json"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

func stagesWorkload(t testing.TB) (*generate.RandomGraph, Options) {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 400}},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 600
	return rg, opt
}

// TestFlatRunStages locks the contract the serving layer builds on:
// every completed run carries a non-nil Stages map with the flat
// pipeline's phases, and the breakdown survives a JSON round-trip.
func TestFlatRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages == nil {
		t.Fatal("completed run has nil Stages")
	}
	for _, stage := range []string{StageGrow, StageScore, StageRecombine, StagePrune} {
		if res.Stages[stage] <= 0 {
			t.Errorf("stage %q missing or non-positive: %v", stage, res.Stages)
		}
	}
	for _, stage := range []string{StageCoarseDetect, StageProject, StageReplay, StageReseed} {
		if _, ok := res.Stages[stage]; ok {
			t.Errorf("flat run reports multilevel/incremental stage %q: %v", stage, res.Stages)
		}
	}
	data, err := json.Marshal(res.Stages)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]float64
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("stages JSON %s: %v", data, err)
	}
	if back[StageGrow] <= 0 {
		t.Errorf("marshaled grow ms = %v", back[StageGrow])
	}
	if res.Sched == nil || len(res.Sched.WorkerBusyNS) == 0 {
		t.Fatalf("sched missing worker busy clocks: %+v", res.Sched)
	}
	var busy int64
	for _, ns := range res.Sched.WorkerBusyNS {
		busy += ns
	}
	if busy <= 0 {
		t.Errorf("total worker busy time = %d", busy)
	}
}

// TestMultilevelRunStages: the descent adds coarse_detect and project
// on top of the coarse run's per-seed phases.
func TestMultilevelRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.Levels = 2
	opt.MinCoarseCells = 1024
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{StageGrow, StagePrune, StageCoarseDetect, StageProject} {
		if res.Stages[stage] <= 0 {
			t.Errorf("stage %q missing: %v", stage, res.Stages)
		}
	}
}

// TestIncrementalRunStages: a replaying run reports the replay/reseed
// wall-time split next to the usual phases.
func TestIncrementalRunStages(t *testing.T) {
	rg, opt := stagesWorkload(t)
	opt.RecordIncremental = true
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prev, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	e := netlist.NetID(nl.NumNets() - 1)
	cells := append([]netlist.CellID{0, 1}, nl.NetPins(e)...)
	d := &netlist.Delta{SetNets: []netlist.NetEdit{{Net: e, Cells: cells[:2]}}}
	patched, eff, err := d.Apply(nl)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := fi.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Incremental == nil || incr.Incremental.FullFallback {
		t.Fatalf("expected a replaying run: %+v", incr.Incremental)
	}
	if incr.Incremental.ReusedSeeds > 0 && incr.Stages[StageReplay] <= 0 {
		t.Errorf("replayed %d seeds but no replay stage: %v", incr.Incremental.ReusedSeeds, incr.Stages)
	}
	if incr.Incremental.RerunSeeds > 0 && incr.Stages[StageReseed] <= 0 {
		t.Errorf("reran %d seeds but no reseed stage: %v", incr.Incremental.RerunSeeds, incr.Stages)
	}
	if incr.Stages[StagePrune] <= 0 {
		t.Errorf("incremental run missing prune stage: %v", incr.Stages)
	}
}

// overheadWorkload is a shrunk BenchmarkFind_Parallel: same shape (two
// planted blocks, multilevel) at 30K cells.
func overheadWorkload(t testing.TB) (*Finder, Options) {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  30_000,
		Blocks: []generate.BlockSpec{{Size: 2000}, {Size: 2000}},
		Seed:   19,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 24
	opt.MaxOrderLen = 3000
	opt.Levels = 2
	opt.MinCoarseCells = 4096
	return f, opt
}

// TestStageTimingOverheadGuard bounds what the stage-timing
// instrumentation costs: at most 2% of a run of the
// BenchmarkFind_Parallel shape. Wall-time differences of a run this
// short cannot resolve 2% on a shared machine, so the guard measures
// the instrumentation itself — the per-seed clock reads. It counts
// them per run through a counting clock, times one read, and holds
// reads × cost ÷ run time to the bound, taking the most reads and the
// fastest of three runs. The read cost is summed over every worker
// while the run time is wall time, so the estimate errs high.
func TestStageTimingOverheadGuard(t *testing.T) {
	f, opt := overheadWorkload(t)
	ctx := context.Background()
	wall := clock
	defer func() { clock = wall }()
	var reads atomic.Int64
	clock = func() time.Time {
		reads.Add(1)
		return wall()
	}
	find := func() (*Result, int64, time.Duration) {
		reads.Store(0)
		start := time.Now()
		res, err := f.Find(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res, reads.Load(), time.Since(start)
	}

	find() // builds the hierarchy and warms the worker-state pool
	res, runReads, run := find()
	if res.Stages[StageGrow] <= 0 {
		t.Fatalf("run has no stage breakdown: %v", res.Stages)
	}
	for range 2 {
		_, n, d := find()
		runReads, run = max(runReads, n), min(run, d)
	}

	// One read's cost through the production clock, as the median of
	// five batches so one preempted batch cannot skew it either way.
	clock = wall
	const batch = 1 << 16
	var perRead [5]float64
	for i := range perRead {
		start := time.Now()
		for range batch {
			_ = clock()
		}
		perRead[i] = float64(time.Since(start)) / batch
	}
	slices.Sort(perRead[:])
	cost := perRead[len(perRead)/2]

	overhead := float64(runReads) * cost / float64(run)
	t.Logf("%d clock reads per run × %.1f ns = %.1f µs against a run of %v: %.3f%%",
		runReads, cost, float64(runReads)*cost/1e3, run, overhead*100)
	if overhead > 0.02 {
		t.Errorf("stage timing costs %.2f%% (> 2%% budget): %d clock reads × %.1f ns against a run of %v",
			overhead*100, runReads, cost, run)
	}
}
