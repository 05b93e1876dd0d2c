package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// gtlHash digests the full member sets (plus cut/pin/seed data) of a
// result, so equality of hashes means byte-identical GTLs.
func gtlHash(res *Result) uint64 {
	h := fnv.New64a()
	for _, g := range res.GTLs {
		fmt.Fprintf(h, "gtl size=%d cut=%d pins=%d seed=%d:", g.Size(), g.Cut, g.Pins, g.Seed)
		for _, m := range g.Members {
			fmt.Fprintf(h, " %d", m)
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// TestEngineGoldenDeterminism locks the engine to the exact output of
// the pre-engine one-shot Find implementation: the hashes below were
// captured by running the original core.Find (commit with the
// per-call worker construction) over these workloads. A fixed RandSeed
// must keep producing byte-identical GTL member sets.
func TestEngineGoldenDeterminism(t *testing.T) {
	cases := []struct {
		cells, block, seeds, z int
		rand                   uint64
		want                   uint64
	}{
		{8000, 400, 32, 1600, 7, 0x5ba804c73ec20c5b},
		{12000, 900, 40, 3600, 42, 0xd7a5dc88ad5128c6},
	}
	for _, tc := range cases {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
			Cells:  tc.cells,
			Blocks: []generate.BlockSpec{{Size: tc.block}},
			Seed:   tc.rand,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Seeds = tc.seeds
		opt.MaxOrderLen = tc.z
		opt.RandSeed = tc.rand

		// The compat wrapper and a reused engine must agree with the
		// golden value.
		res, err := Find(rg.Netlist, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := gtlHash(res); got != tc.want {
			t.Errorf("cells=%d: Find hash %#016x, want golden %#016x", tc.cells, got, tc.want)
		}
		f, err := NewFinder(rg.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			res2, err := f.Find(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := gtlHash(res2); got != tc.want {
				t.Errorf("cells=%d run %d: engine hash %#016x, want golden %#016x", tc.cells, run, got, tc.want)
			}
		}
	}
}

// TestFindCancellation checks a cancelled context stops the run early
// and yields a partial result alongside an error wrapping ctx.Err().
func TestFindCancellation(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  12000,
		Blocks: []generate.BlockSpec{{Size: 600}},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 64
	opt.MaxOrderLen = 3000
	opt.Workers = 1 // deterministic completion count around the cancel point

	// Cancel from the progress callback after the second seed: the run
	// must stop long before all 64 seeds execute.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt.Progress = func(p Progress) {
		if p.SeedsDone >= 2 {
			cancel()
		}
	}
	res, err := f.Find(ctx, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial result returned")
	}
	if len(res.Seeds) == 0 || len(res.Seeds) >= opt.Seeds {
		t.Errorf("partial run completed %d/%d seeds; want some but not all", len(res.Seeds), opt.Seeds)
	}

	// A context cancelled before the run starts yields an empty partial.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	opt.Progress = nil
	res, err = f.Find(pre, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Seeds) != 0 || len(res.GTLs) != 0 {
		t.Errorf("pre-cancelled run: res=%+v, want empty partial", res)
	}
}

// TestDuplicateSeedDedup is the regression test for the stratified
// seeding waste: with Seeds far above the cell count, strata collapse
// onto the same cells and the engine must run each unique seed once,
// while still reporting Options.Seeds deterministic trace entries.
func TestDuplicateSeedDedup(t *testing.T) {
	var b netlist.Builder
	b.AddCells(12)
	for i := 0; i < 11; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID(i+1))
	}
	nl := b.MustBuild()
	opt := DefaultOptions()
	opt.Seeds = 60 // 5x the cell count: every cell is hit repeatedly
	opt.MaxOrderLen = 6
	opt.MinGroupSize = 2

	f, err := NewFinder(nl)
	if err != nil {
		t.Fatal(err)
	}
	var lastTotal int
	opt.Progress = func(p Progress) { lastTotal = p.SeedsTotal }
	res1, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if lastTotal > nl.NumCells() {
		t.Errorf("engine executed %d seeds for a %d-cell netlist; duplicates not deduped", lastTotal, nl.NumCells())
	}
	if lastTotal >= opt.Seeds {
		t.Errorf("SeedsTotal %d not reduced below requested %d", lastTotal, opt.Seeds)
	}
	if len(res1.Seeds) != opt.Seeds {
		t.Fatalf("trace entries %d, want %d (one per requested seed)", len(res1.Seeds), opt.Seeds)
	}
	// Duplicate indices must carry their owner's trace: every trace with
	// the same seed cell must be identical.
	bySeed := map[netlist.CellID]SeedTrace{}
	for i, tr := range res1.Seeds {
		if prev, ok := bySeed[tr.Seed]; ok {
			if prev != tr {
				t.Errorf("trace %d for seed %d differs from earlier occurrence", i, tr.Seed)
			}
		} else {
			bySeed[tr.Seed] = tr
		}
	}
	// And the whole run stays deterministic.
	opt.Progress = nil
	res2, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if gtlHash(res1) != gtlHash(res2) {
		t.Error("dedup run not deterministic")
	}
	if len(res1.Seeds) != len(res2.Seeds) {
		t.Errorf("trace counts differ across runs: %d vs %d", len(res1.Seeds), len(res2.Seeds))
	}
}

// TestFinderConcurrentRuns exercises the shared worker-state pool from
// concurrent runs of one engine (run with -race to make this count).
func TestFinderConcurrentRuns(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  5000,
		Blocks: []generate.BlockSpec{{Size: 300}},
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 16
	opt.MaxOrderLen = 1000
	ref, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	want := gtlHash(ref)
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			res, err := f.Find(context.Background(), opt)
			if err == nil && gtlHash(res) != want {
				err = errors.New("concurrent run diverged")
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
