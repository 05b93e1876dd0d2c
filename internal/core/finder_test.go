package core

import (
	"context"
	"strings"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// matchBlock returns how well a found GTL matches a ground-truth block:
// missed = truth cells absent from found, over = found cells outside
// truth.
func matchBlock(truth, found []netlist.CellID) (missed, over int) {
	in := make(map[netlist.CellID]bool, len(truth))
	for _, c := range truth {
		in[c] = true
	}
	hit := 0
	for _, c := range found {
		if in[c] {
			hit++
		} else {
			over++
		}
	}
	missed = len(truth) - hit
	return missed, over
}

// bestMatch pairs a truth block with the found GTL sharing the most
// cells; returns nil when nothing overlaps.
func bestMatch(truth []netlist.CellID, gtls []GTL) *GTL {
	in := make(map[netlist.CellID]bool, len(truth))
	for _, c := range truth {
		in[c] = true
	}
	bestIdx, bestHit := -1, 0
	for i := range gtls {
		hit := 0
		for _, c := range gtls[i].Members {
			if in[c] {
				hit++
			}
		}
		if hit > bestHit {
			bestHit, bestIdx = hit, i
		}
	}
	if bestIdx < 0 {
		return nil
	}
	return &gtls[bestIdx]
}

func TestFindSinglePlantedBlock(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  10_000,
		Blocks: []generate.BlockSpec{{Size: 500}},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 40
	opt.MaxOrderLen = 2000
	res, err := Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GTLs) == 0 {
		t.Fatalf("no GTLs found (candidates=%d)", res.Candidates)
	}
	m := bestMatch(rg.Blocks[0], res.GTLs)
	if m == nil {
		t.Fatalf("no GTL overlaps the planted block; best found sizes: %v", sizes(res.GTLs))
	}
	missed, over := matchBlock(rg.Blocks[0], m.Members)
	t.Logf("found size=%d score=%.4f nGTL-S=%.4f GTL-SD=%.4f rent=%.3f missed=%d over=%d",
		m.Size(), m.Score, m.NGTLS, m.GTLSD, m.Rent, missed, over)
	if float64(missed) > 0.02*float64(len(rg.Blocks[0])) {
		t.Errorf("missed %d of %d block cells (> 2%%)", missed, len(rg.Blocks[0]))
	}
	if float64(over) > 0.05*float64(len(rg.Blocks[0])) {
		t.Errorf("included %d foreign cells (> 5%% of block)", over)
	}
	if m.Score > 0.5 {
		t.Errorf("planted block score %.3f; want well below 1", m.Score)
	}
}

func sizes(gtls []GTL) []int {
	out := make([]int, len(gtls))
	for i := range gtls {
		out[i] = gtls[i].Size()
	}
	return out
}

// TestOptionsValidation covers the centralized Options.validate():
// every nonsense field value must produce a descriptive error from
// every engine entry point, not a silent misbehaving run.
func TestOptionsValidation(t *testing.T) {
	var b netlist.Builder
	b.AddCells(16)
	for i := 0; i < 15; i++ {
		b.AddNet("", netlist.CellID(i), netlist.CellID(i+1))
	}
	nl := b.MustBuild()
	cases := []struct {
		name   string
		mutate func(*Options)
		want   string
	}{
		{"zero seeds", func(o *Options) { o.Seeds = 0 }, "Seeds"},
		{"negative seeds", func(o *Options) { o.Seeds = -4 }, "Seeds"},
		{"short ordering", func(o *Options) { o.MaxOrderLen = 1 }, "MaxOrderLen"},
		{"negative min group", func(o *Options) { o.MinGroupSize = -1 }, "MinGroupSize"},
		{"zero accept threshold", func(o *Options) { o.AcceptThreshold = 0 }, "AcceptThreshold"},
		{"negative dip ratio", func(o *Options) { o.DipRatio = -0.5 }, "DipRatio"},
		{"zero dip ratio", func(o *Options) { o.DipRatio = 0 }, "DipRatio"},
		{"negative big-net skip", func(o *Options) { o.BigNetSkip = -1 }, "BigNetSkip"},
		{"negative refine seeds", func(o *Options) { o.RefineSeeds = -2 }, "RefineSeeds"},
		{"negative overlap tolerance", func(o *Options) { o.PruneOverlapTolerance = -0.1 }, "PruneOverlapTolerance"},
	}
	f, err := NewFinder(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		opt := DefaultOptions()
		tc.mutate(&opt)
		if _, err := Find(nl, opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Find err = %v, want mention of %s", tc.name, err, tc.want)
		}
		if _, err := f.Find(context.Background(), opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Finder.Find err = %v, want mention of %s", tc.name, err, tc.want)
		}
		if _, err := f.FindIncremental(context.Background(), opt, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FindIncremental err = %v, want mention of %s", tc.name, err, tc.want)
		}
	}
}

func TestNoGTLInPureRandomGraph(t *testing.T) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 20
	opt.MaxOrderLen = 1500
	res, err := Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GTLs) > 0 {
		t.Errorf("pure random graph produced %d spurious GTLs: sizes %v score0=%.3f",
			len(res.GTLs), sizes(res.GTLs), res.GTLs[0].Score)
	}
}
