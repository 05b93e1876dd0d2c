package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"tanglefind"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
	"tanglefind/internal/report"
)

// ---------------------------------------------------------------------
// Flat vs multilevel — the speed/quality table for the coarsen →
// detect → project + refine pipeline. Not a paper table: this is the
// repo's own scaling evaluation, run over the Table-1 random-graph
// workload and a million-cell generated netlist (sizes scale with
// Config.Scale; -scale full reproduces the committed record).
// ---------------------------------------------------------------------

// MultilevelCase describes one flat-vs-multilevel comparison workload.
type MultilevelCase struct {
	Name   string
	Cells  int   // at full scale
	Blocks []int // planted block sizes at full scale
	Levels int   // requested pipeline depth for the multilevel run
}

// MultilevelCases are the two comparison workloads: the Table 1 case-3
// geometry, and the scaling headliner — a 1.25M-cell random graph with
// four planted 60K-cell blocks.
var MultilevelCases = []MultilevelCase{
	{Name: "table1_case3", Cells: 100_000, Blocks: []int{5000}, Levels: 2},
	{Name: "million", Cells: 1_250_000, Blocks: []int{60_000, 60_000, 60_000, 60_000}, Levels: 4},
}

// MultilevelResult is one row of the speed/quality comparison.
type MultilevelResult struct {
	Name          string  `json:"name"`
	Cells         int     `json:"cells"`
	Pins          int     `json:"pins"`
	Seeds         int     `json:"seeds"`
	LevelsUsed    int     `json:"levels_used"` // hierarchy depth actually formed
	FlatMS        float64 `json:"flat_ms"`
	MultiMS       float64 `json:"multilevel_ms"`
	Speedup       float64 `json:"speedup"`
	FlatRecovery  float64 `json:"flat_recovery_pct"`  // % of planted cells in any reported GTL
	MultiRecovery float64 `json:"multi_recovery_pct"` //
	FlatGTLs      int     `json:"flat_gtls"`
	MultiGTLs     int     `json:"multi_gtls"`
}

// unionRecovery returns the percentage of planted cells appearing in
// any reported GTL — the pipeline's cell-recovery quality metric.
func unionRecovery(blocks [][]netlist.CellID, gtls []tanglefind.GTL) float64 {
	planted := make(map[netlist.CellID]bool)
	for _, b := range blocks {
		for _, c := range b {
			planted[c] = true
		}
	}
	if len(planted) == 0 {
		return 0
	}
	hit := 0
	for i := range gtls {
		for _, c := range gtls[i].Members {
			if planted[c] {
				hit++
				delete(planted, c) // count each planted cell once
			}
		}
	}
	total := hit + len(planted)
	return 100 * float64(hit) / float64(total)
}

// multilevelWorkload builds one case's scaled random graph.
func multilevelWorkload(cs MultilevelCase, cfg Config) (*generate.RandomGraph, error) {
	spec := generate.RandomGraphSpec{
		Cells: cfg.scaled(cs.Cells),
		Seed:  cfg.Seed*1000 + 77,
	}
	for _, b := range cs.Blocks {
		size := cfg.scaled(b)
		if size < 64 {
			size = 64
		}
		spec.Blocks = append(spec.Blocks, generate.BlockSpec{Size: size})
	}
	// Keep the background dominant when scaling floors the blocks.
	minCells := 0
	for _, b := range spec.Blocks {
		minCells += 3 * b.Size
	}
	if spec.Cells < minCells {
		spec.Cells = minCells
	}
	return generate.NewRandomGraph(spec)
}

// MultilevelRun executes one case: the identical workload and seed
// schedule through the flat pipeline and through the multilevel
// pipeline, on one shared engine.
func MultilevelRun(ctx context.Context, cs MultilevelCase, cfg Config) (*MultilevelResult, error) {
	rg, err := multilevelWorkload(cs, cfg)
	if err != nil {
		return nil, fmt.Errorf("multilevel %s: %w", cs.Name, err)
	}
	nl := rg.Netlist
	maxBlock := 0
	for _, b := range rg.Blocks {
		if len(b) > maxBlock {
			maxBlock = len(b)
		}
	}
	opt := cfg.finderOptions(maxBlock, nl.NumCells())
	// Give each planted block ~5 expected seeds (same policy as the
	// Table 1 runs) so recovery is a property of the pipeline, not of
	// seed luck.
	minBlock := len(rg.Blocks[0])
	for _, b := range rg.Blocks {
		if len(b) < minBlock {
			minBlock = len(b)
		}
	}
	if want := 5 * nl.NumCells() / minBlock; opt.Seeds < want {
		opt.Seeds = want
	}

	f, err := tanglefind.NewFinder(nl)
	if err != nil {
		return nil, err
	}
	out := &MultilevelResult{
		Name:  cs.Name,
		Cells: nl.NumCells(),
		Pins:  nl.NumPins(),
		Seeds: opt.Seeds,
	}

	flatOpt := opt
	flatOpt.Levels = 1
	start := time.Now()
	flat, err := f.Find(ctx, flatOpt)
	if err != nil {
		return nil, fmt.Errorf("multilevel %s: flat run: %w", cs.Name, err)
	}
	out.FlatMS = float64(time.Since(start)) / float64(time.Millisecond)
	out.FlatGTLs = len(flat.GTLs)
	out.FlatRecovery = unionRecovery(rg.Blocks, flat.GTLs)

	mlOpt := opt
	mlOpt.Levels = cs.Levels
	// Let small-scale runs coarsen too: the floor tracks the workload
	// so the pipeline under test is always the multilevel one.
	if floor := nl.NumCells() / 8; floor < netlist.DefaultMinCoarseCells {
		mlOpt.MinCoarseCells = max(floor, 256)
	}
	start = time.Now()
	ml, err := f.Find(ctx, mlOpt)
	if err != nil {
		return nil, fmt.Errorf("multilevel %s: multilevel run: %w", cs.Name, err)
	}
	out.MultiMS = float64(time.Since(start)) / float64(time.Millisecond)
	out.MultiGTLs = len(ml.GTLs)
	out.MultiRecovery = unionRecovery(rg.Blocks, ml.GTLs)
	out.LevelsUsed = len(ml.Levels)
	if out.LevelsUsed == 0 {
		out.LevelsUsed = 1
	}
	if out.MultiMS > 0 {
		out.Speedup = out.FlatMS / out.MultiMS
	}
	return out, nil
}

// Multilevel runs every comparison case, renders the speed/quality
// table and returns the record gtlexp -dump saves.
func Multilevel(ctx context.Context, cfg Config, w io.Writer) (*MultilevelRecord, error) {
	tbl := report.New("Flat vs multilevel detection (coarsen -> detect -> project + refine)",
		"Case", "|V|", "#seeds", "Lvls", "Flat ms", "ML ms", "Speedup", "Flat rec%", "ML rec%", "Flat GTL", "ML GTL")
	var results []*MultilevelResult
	for _, cs := range MultilevelCases {
		r, err := MultilevelRun(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		tbl.Row(r.Name, r.Cells, r.Seeds, r.LevelsUsed,
			fmt.Sprintf("%.0f", r.FlatMS), fmt.Sprintf("%.0f", r.MultiMS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1f", r.FlatRecovery), fmt.Sprintf("%.1f", r.MultiRecovery),
			r.FlatGTLs, r.MultiGTLs)
	}
	if w != nil {
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return &MultilevelRecord{
		Scale:   cfg.Scale,
		Seeds:   cfg.Seeds,
		Workers: cfg.ResolvedWorkers(),
		CPUs:    runtime.GOMAXPROCS(0),
		Results: results,
	}, nil
}

// MultilevelRecord is the serialized speed/quality record gtlexp -dump
// writes as BENCH_multilevel.json, for the repo's perf trajectory.
type MultilevelRecord struct {
	Scale   float64             `json:"scale"`
	Seeds   int                 `json:"seeds"`
	Workers int                 `json:"workers"` // resolved engine worker count (never 0)
	CPUs    int                 `json:"cpus"`    // runtime.GOMAXPROCS(0) at measurement time
	Results []*MultilevelResult `json:"results"`
}
