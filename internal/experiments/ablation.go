package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"tanglefind/internal/core"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
	"tanglefind/internal/report"
)

// AblationRow measures one finder variant on the shared workload.
type AblationRow struct {
	Name      string
	RecoveryP float64 // % of the planted block recovered by the best GTL
	OverP     float64 // % extra cells relative to the block
	Found     int
	Elapsed   time.Duration
}

// Ablation runs the design-choice ablations DESIGN.md calls out on one
// planted-block workload: Phase I growth rule (the paper's §3.2.1
// argument), Phase III refinement on/off, driving metric, and the
// big-net skip threshold.
func Ablation(ctx context.Context, cfg Config, w io.Writer) ([]AblationRow, error) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  cfg.scaled(250_000),
		Blocks: []generate.BlockSpec{{Size: cfg.scaled(15_000)}},
		Seed:   cfg.Seed*3 + 5,
	})
	if err != nil {
		return nil, err
	}
	truth := rg.Blocks[0]
	in := make(map[netlist.CellID]bool, len(truth))
	for _, c := range truth {
		in[c] = true
	}
	base := cfg.finderOptions(len(truth), rg.Netlist.NumCells())

	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"weighted ordering (paper)", func(o *core.Options) {}},
		{"min-cut greedy ordering", func(o *core.Options) { o.Ordering = core.OrderMinCut }},
		{"BFS ordering", func(o *core.Options) { o.Ordering = core.OrderBFS }},
		{"refinement off", func(o *core.Options) { o.Refine = false }},
		{"metric nGTL-S", func(o *core.Options) { o.Metric = core.MetricNGTLS }},
		{"big-net skip off", func(o *core.Options) { o.BigNetSkip = 0 }},
	}
	// One engine serves every variant: the ablation sweep is exactly the
	// repeated-run-over-one-netlist shape engine reuse exists for.
	finder, err := core.NewFinder(rg.Netlist)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, v := range variants {
		opt := base
		v.mutate(&opt)
		res, err := finder.Find(ctx, opt)
		if err != nil {
			return nil, err
		}
		bestHit, bestOver := 0, 0
		for _, g := range res.GTLs {
			hit := 0
			for _, c := range g.Members {
				if in[c] {
					hit++
				}
			}
			if hit > bestHit {
				bestHit = hit
				bestOver = g.Size() - hit
			}
		}
		rows = append(rows, AblationRow{
			Name:      v.name,
			RecoveryP: 100 * float64(bestHit) / float64(len(truth)),
			OverP:     100 * float64(bestOver) / float64(len(truth)),
			Found:     len(res.GTLs),
			Elapsed:   res.Elapsed,
		})
	}
	if w != nil {
		tbl := report.New(
			fmt.Sprintf("Ablations (planted block %d cells in %d-cell graph, %d seeds)",
				len(truth), rg.Netlist.NumCells(), base.Seeds),
			"Variant", "Recovery%", "Over%", "#GTL", "Runtime")
		for _, r := range rows {
			tbl.Row(r.Name, fmt.Sprintf("%.1f", r.RecoveryP), fmt.Sprintf("%.1f", r.OverP),
				r.Found, r.Elapsed.Round(time.Millisecond).String())
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return rows, nil
}
