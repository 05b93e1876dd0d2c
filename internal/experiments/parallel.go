package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"tanglefind"
	"tanglefind/internal/netlist"
	"tanglefind/internal/netlist/deltatest"
	"tanglefind/internal/report"
	"tanglefind/internal/telemetry"
)

// ---------------------------------------------------------------------
// Parallel scaling — the engine's seed pool swept across worker
// counts on the million-cell multilevel workload (the committed
// BENCH_multilevel.json headliner), so the speedup-vs-cores curve and
// the flat-vs-(multilevel × parallel) combined speedup come from one
// invocation. Every row is differentially verified against the
// Workers=1 run before any timing is reported: parallel scheduling
// must never change results.
// ---------------------------------------------------------------------

// DefaultWorkerSweep is the standard sweep: 1, 2, 4 and NumCPU
// workers, deduplicated and sorted (on a 2-core box that is 1, 2, 4).
func DefaultWorkerSweep() []int {
	sweep := []int{1, 2, 4, runtime.NumCPU()}
	slices.Sort(sweep)
	return slices.Compact(sweep)
}

// ParallelResult is one worker-count row of the scaling sweep.
type ParallelResult struct {
	Workers int     `json:"workers"`
	FindMS  float64 `json:"find_ms"`
	// Speedup is the self-speedup versus this sweep's Workers=1 row —
	// the scheduler's scaling, isolated from every other optimization.
	Speedup float64 `json:"speedup"`
	// SpeedupVsFlat compares against the flat sequential reference run
	// (Levels=1, Workers=1): the combined multilevel × parallel gain.
	SpeedupVsFlat float64 `json:"speedup_vs_flat"`
	// WorkerSeeds mirrors tanglefind.SchedStats for the run: the per-worker
	// seed counts whose spread is the utilization picture.
	WorkerSeeds []int64 `json:"worker_seeds,omitempty"`
	GTLs        int     `json:"gtls"`
	// Stages is the run's per-stage wall-time breakdown (worker-summed
	// phases plus per-run stamps), serialized as {"stage": ms}.
	Stages telemetry.StageTimings `json:"stages_ms,omitempty"`
	// Match is the differential oracle verdict against the Workers=1
	// run of the identical options (groups and scores to 1e-9).
	Match bool `json:"match"`
}

// ParallelRun executes the sweep over one prepared workload: a flat
// sequential reference first, then the multilevel pipeline once per
// worker count, all on one shared engine.
func ParallelRun(ctx context.Context, cfg Config, sweep []int) (flatMS float64, rows []*ParallelResult, cells, pins int, err error) {
	cs := MultilevelCases[len(MultilevelCases)-1] // the million-cell headliner
	rg, err := multilevelWorkload(cs, cfg)
	if err != nil {
		return 0, nil, 0, 0, fmt.Errorf("parallel: %w", err)
	}
	nl := rg.Netlist
	maxBlock := 0
	for _, b := range rg.Blocks {
		if len(b) > maxBlock {
			maxBlock = len(b)
		}
	}
	opt := cfg.finderOptions(maxBlock, nl.NumCells())
	opt.Levels = cs.Levels
	if floor := nl.NumCells() / 8; floor < netlist.DefaultMinCoarseCells {
		opt.MinCoarseCells = max(floor, 256)
	}

	f, err := tanglefind.NewFinder(nl)
	if err != nil {
		return 0, nil, 0, 0, err
	}

	flatOpt := opt
	flatOpt.Levels = 1
	flatOpt.Workers = 1
	start := time.Now()
	if _, err := f.Find(ctx, flatOpt); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("parallel: flat reference: %w", err)
	}
	flatMS = float64(time.Since(start)) / float64(time.Millisecond)

	// Warm the engine before timing: the first multilevel run pays
	// hierarchy construction and cold scratch pools that every later
	// run reuses, which would otherwise gift the second row a phantom
	// speedup unrelated to scheduling.
	warmOpt := opt
	warmOpt.Workers = 1
	if _, err := f.Find(ctx, warmOpt); err != nil {
		return 0, nil, 0, 0, fmt.Errorf("parallel: warmup: %w", err)
	}

	var baseline *tanglefind.Result
	var baseMS float64
	for _, w := range sweep {
		runOpt := opt
		runOpt.Workers = w
		start := time.Now()
		res, err := f.Find(ctx, runOpt)
		if err != nil {
			return 0, nil, 0, 0, fmt.Errorf("parallel: workers=%d: %w", w, err)
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		row := &ParallelResult{Workers: w, FindMS: ms, WorkerSeeds: res.Sched.WorkerSeeds, GTLs: len(res.GTLs), Stages: res.Stages}
		if baseline == nil {
			// The first row anchors the sweep. The standard sweep starts
			// at 1, making Speedup a true self-speedup; a custom sweep
			// without a 1 row still gets internally consistent ratios.
			baseline, baseMS = res, ms
		}
		row.Match = deltatest.DiffResults(baseline, res, 1e-9) == nil
		if !row.Match {
			return 0, nil, 0, 0, fmt.Errorf("parallel: workers=%d diverged from workers=%d: %v",
				w, sweep[0], deltatest.DiffResults(baseline, res, 1e-9))
		}
		if ms > 0 {
			row.Speedup = baseMS / ms
			row.SpeedupVsFlat = flatMS / ms
		}
		rows = append(rows, row)
	}
	return flatMS, rows, nl.NumCells(), nl.NumPins(), nil
}

// Parallel runs the worker sweep and renders the scaling table. A nil
// sweep uses DefaultWorkerSweep.
func Parallel(ctx context.Context, cfg Config, sweep []int, w io.Writer) (*ParallelRecord, error) {
	if len(sweep) == 0 {
		sweep = DefaultWorkerSweep()
	}
	flatMS, rows, cells, pins, err := ParallelRun(ctx, cfg, sweep)
	if err != nil {
		return nil, err
	}
	rec := &ParallelRecord{
		Scale:   cfg.Scale,
		Seeds:   cfg.Seeds,
		CPUs:    runtime.GOMAXPROCS(0),
		Cells:   cells,
		Pins:    pins,
		FlatMS:  flatMS,
		Results: rows,
	}
	if w != nil {
		tbl := report.New(
			fmt.Sprintf("Parallel scaling, multilevel million-cell workload (%d cells, %d CPUs, flat 1-worker ref %.0f ms)",
				cells, rec.CPUs, flatMS),
			"Workers", "Find ms", "Speedup", "vs flat", "GTLs", "Top stages", "Match")
		for _, r := range rows {
			tbl.Row(r.Workers, fmt.Sprintf("%.0f", r.FindMS),
				fmt.Sprintf("%.2fx", r.Speedup), fmt.Sprintf("%.2fx", r.SpeedupVsFlat),
				r.GTLs, r.Stages.Top(3), r.Match)
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// ParallelRecord is the serialized scaling record gtlexp -dump writes
// as BENCH_parallel.json. CPUs is the honest parallelism of the
// measuring machine: rows with Workers > CPUs cannot show real
// scaling, and a record with CPUs == 1 documents a sweep that only
// verified determinism, not speedup.
type ParallelRecord struct {
	Scale   float64           `json:"scale"`
	Seeds   int               `json:"seeds"`
	CPUs    int               `json:"cpus"` // runtime.GOMAXPROCS(0) at measurement time
	Cells   int               `json:"cells"`
	Pins    int               `json:"pins"`
	FlatMS  float64           `json:"flat_ms"` // flat sequential reference (Levels=1, Workers=1)
	Results []*ParallelResult `json:"results"`
}
