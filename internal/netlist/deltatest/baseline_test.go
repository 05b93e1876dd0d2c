package deltatest

import (
	"context"
	"testing"

	"tanglefind/internal/core"
	"tanglefind/internal/generate"
)

func baselineWorkload(t *testing.T) *generate.RandomGraph {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 400}, {Size: 250}},
		Seed:   31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rg
}

// TestOptimizedMatchesBaseline is the hot-path equivalence differential:
// the overhauled absorb loop (outside-pin compaction, push coalescing,
// 4-ary heap) against the retained pre-overhaul loop, bit-identical via
// DiffResults — member order included — across orderings and
// pipelines. CI's baseline differential shard runs it under -race.
func TestOptimizedMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	nl := baselineWorkload(t).Netlist

	base := core.DefaultOptions()
	base.Seeds = 24
	base.MaxOrderLen = 800

	multi := base
	multi.Levels = 3
	multi.MinCoarseCells = 512

	cases := []struct {
		name string
		opt  core.Options
	}{
		{"flat_weighted", base},
		{"multilevel", multi},
	}
	bfs := base
	bfs.Ordering = core.OrderBFS
	cases = append(cases, struct {
		name string
		opt  core.Options
	}{"flat_bfs", bfs})
	mincut := base
	mincut.Ordering = core.OrderMinCut
	cases = append(cases, struct {
		name string
		opt  core.Options
	}{"flat_mincut", mincut})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := core.NewFinder(nl)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetBaselineGrowth(true)
			want, err := ref.Find(ctx, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt2, err2 := core.NewFinder(nl)
			if err2 != nil {
				t.Fatal(err2)
			}
			got, err := opt2.Find(ctx, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			// Zero tolerance: the optimized loop must be bit-identical
			// to the retained pre-overhaul engine, ordering and all.
			if err := DiffResults(want, got, 0); err != nil {
				t.Fatalf("optimized absorb loop diverged from baseline: %v", err)
			}
		})
	}
}
