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
	"tanglefind/internal/report"
	"tanglefind/internal/telemetry"
)

// ---------------------------------------------------------------------
// Single-core hot path: the flat pipeline at Workers=1, timed with its
// stage breakdown — the single-core story; the parallel experiment
// owns scaling.
// ---------------------------------------------------------------------

// HotPathResult is one workload row of the single-core record.
type HotPathResult struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Pins  int    `json:"pins"`
	Seeds int    `json:"seeds"`
	// OptimizedMS is the wall time of one warm flat find.
	OptimizedMS float64 `json:"optimized_ms"`
	GTLs        int     `json:"gtls"`
	// OptimizedStages is the timed run's stage breakdown, so the record
	// shows where the time went.
	OptimizedStages telemetry.StageTimings `json:"optimized_stages_ms,omitempty"`
}

// HotPathRun times the engine on one case's workload.
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
	// One warmup run pays cold scratch pools and page-faults the CSR
	// once, so the timed run carries no setup noise.
	if _, err := f.Find(ctx, opt); err != nil {
		return nil, fmt.Errorf("hotpath %s: warmup: %w", cs.Name, err)
	}
	start := time.Now()
	res, err := f.Find(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("hotpath %s: %w", cs.Name, err)
	}
	return &HotPathResult{
		Name:            cs.Name,
		Cells:           nl.NumCells(),
		Pins:            nl.NumPins(),
		Seeds:           opt.Seeds,
		OptimizedMS:     float64(time.Since(start)) / float64(time.Millisecond),
		GTLs:            len(res.GTLs),
		OptimizedStages: res.Stages,
	}, nil
}

// HotPath times both standard geometries and renders the table.
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
			"Workload", "Cells", "Find ms", "GTLs", "Top stages")
		for _, r := range rec.Results {
			tbl.Row(r.Name, r.Cells, fmt.Sprintf("%.0f", r.OptimizedMS), r.GTLs, r.OptimizedStages.Top(3))
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// HotPathRecord is the serialized record gtlexp -dump writes as
// BENCH_hotpath.json. A record with Scale < 1 documents a smoke
// measurement, not the headline claim.
type HotPathRecord struct {
	Scale   float64          `json:"scale"`
	Seeds   int              `json:"seeds"`
	CPUs    int              `json:"cpus"` // runtime.GOMAXPROCS(0) at measurement time
	Results []*HotPathResult `json:"results"`
}

// WriteHotPathRecord saves the record as indented JSON.
func WriteHotPathRecord(path string, rec *HotPathRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
