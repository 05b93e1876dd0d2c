package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"tanglefind/internal/core"
	"tanglefind/internal/netlist/deltatest"
	"tanglefind/internal/report"
	"tanglefind/internal/telemetry"
)

// ---------------------------------------------------------------------
// Single-core hot path — the PR's before/after: the retained
// pre-overhaul absorb loop (full NetPins re-walks, per-(net,cell)
// heap pushes, binary heap) against the overhauled engine (amortized
// outside-pin compaction, coalesced pushes, 4-ary heap). Every timed
// pair is differentially verified first: optimized must be
// bit-identical to baseline. Flat pipeline, Workers=1 throughout —
// this is the single-core story; the parallel experiment owns scaling.
// ---------------------------------------------------------------------

// HotPathResult is one workload row of the before/after comparison.
type HotPathResult struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Pins  int    `json:"pins"`
	Seeds int    `json:"seeds"`
	// BaselineMS times the retained pre-overhaul absorb loop
	// (core.Finder.SetBaselineGrowth); OptimizedMS the default engine.
	BaselineMS  float64 `json:"baseline_ms"`
	OptimizedMS float64 `json:"optimized_ms"`
	// Speedup = BaselineMS/OptimizedMS, the overhaul's single-core gain.
	Speedup float64 `json:"speedup"`
	GTLs    int     `json:"gtls"`
	// Stage breakdowns of the timed baseline and optimized runs, so
	// the record shows where the time went, not just that it shrank.
	BaselineStages  telemetry.StageTimings `json:"baseline_stages_ms,omitempty"`
	OptimizedStages telemetry.StageTimings `json:"optimized_stages_ms,omitempty"`
	// Match is the bit-identity verdict (optimized vs baseline, zero
	// tolerance).
	Match bool `json:"match"`
}

// HotPathRun executes the before/after on one case's workload.
func HotPathRun(ctx context.Context, cs MultilevelCase, cfg Config) (*HotPathResult, error) {
	rg, err := multilevelWorkload(cs, cfg)
	if err != nil {
		return nil, fmt.Errorf("hotpath %s: %w", cs.Name, err)
	}
	nl := rg.Netlist
	maxBlock := 0
	for _, b := range rg.Blocks {
		if len(b) > maxBlock {
			maxBlock = len(b)
		}
	}
	opt := cfg.finderOptions(maxBlock, nl.NumCells())
	opt.Levels = 1 // flat: time the absorb loop itself, not coarsening
	opt.Workers = 1

	f, err := core.NewFinder(nl)
	if err != nil {
		return nil, err
	}

	timed := func(o core.Options) (*core.Result, float64, error) {
		start := time.Now()
		res, err := f.Find(ctx, o)
		return res, float64(time.Since(start)) / float64(time.Millisecond), err
	}

	// One warmup run pays cold scratch pools and page-faults the CSR
	// once, so neither engine's timed run carries setup noise. Warm
	// with the baseline engine: any residual warmup bias then favors
	// the baseline, making the reported speedup conservative.
	f.SetBaselineGrowth(true)
	if _, _, err := timed(opt); err != nil {
		return nil, fmt.Errorf("hotpath %s: warmup: %w", cs.Name, err)
	}
	baseRes, baseMS, err := timed(opt)
	if err != nil {
		return nil, fmt.Errorf("hotpath %s: baseline: %w", cs.Name, err)
	}

	f.SetBaselineGrowth(false)
	optRes, optMS, err := timed(opt)
	if err != nil {
		return nil, fmt.Errorf("hotpath %s: optimized: %w", cs.Name, err)
	}
	if err := deltatest.DiffResults(baseRes, optRes, 0); err != nil {
		return nil, fmt.Errorf("hotpath %s: optimized diverged from baseline: %w", cs.Name, err)
	}

	row := &HotPathResult{
		Name:            cs.Name,
		Cells:           nl.NumCells(),
		Pins:            nl.NumPins(),
		Seeds:           opt.Seeds,
		BaselineMS:      baseMS,
		OptimizedMS:     optMS,
		GTLs:            len(optRes.GTLs),
		BaselineStages:  baseRes.Stages,
		OptimizedStages: optRes.Stages,
		Match:           true,
	}
	if optMS > 0 {
		row.Speedup = baseMS / optMS
	}
	return row, nil
}

// HotPath runs the before/after over both standard geometries and
// renders the comparison table.
func HotPath(ctx context.Context, cfg Config, w io.Writer) (*HotPathRecord, error) {
	rec := &HotPathRecord{Scale: cfg.Scale, Seeds: cfg.Seeds, CPUs: runtime.GOMAXPROCS(0)}
	for _, cs := range MultilevelCases {
		row, err := HotPathRun(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		rec.Results = append(rec.Results, row)
	}
	if w != nil {
		tbl := report.New(
			fmt.Sprintf("Single-core hot path, flat pipeline, Workers=1 (%d CPUs)", rec.CPUs),
			"Workload", "Cells", "Baseline ms", "Optimized ms", "Speedup", "GTLs", "Top stages", "Match")
		for _, r := range rec.Results {
			tbl.Row(r.Name, r.Cells, fmt.Sprintf("%.0f", r.BaselineMS),
				fmt.Sprintf("%.0f", r.OptimizedMS), fmt.Sprintf("%.2fx", r.Speedup),
				r.GTLs, r.OptimizedStages.Top(3), r.Match)
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// HotPathRecord is the serialized before/after gtlexp -dump writes as
// BENCH_hotpath.json. A record with Scale < 1 documents a smoke
// measurement, not the headline claim.
type HotPathRecord struct {
	Scale   float64          `json:"scale"`
	Seeds   int              `json:"seeds"`
	CPUs    int              `json:"cpus"` // runtime.GOMAXPROCS(0) at measurement time
	Results []*HotPathResult `json:"results"`
}

// WriteHotPathRecord saves the comparison as indented JSON.
func WriteHotPathRecord(path string, rec *HotPathRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
