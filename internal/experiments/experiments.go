// Package experiments regenerates every table and figure of the
// paper's evaluation chapter. Each experiment builds its workload with
// internal/generate (or loads real Bookshelf data when pointed at it),
// runs the tangled-logic finder and prints a paper-style table, while
// also returning a structured result the test suite and the root
// benchmarks assert on.
//
// Scale: the paper's largest case has 800K cells and uses 100 seeds on
// an 8-way Xeon server; Config.Scale shrinks the workloads
// proportionally so the suite runs in seconds on laptop cores, and
// ScaleFull reruns the paper's exact sizes.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"tanglefind"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
	"tanglefind/internal/report"
)

// Config sets the workload scale of every experiment.
type Config struct {
	// Scale multiplies the paper's design and structure sizes
	// (1.0 = paper scale).
	Scale float64
	// Seeds is the finder's seed count m (paper: 100).
	Seeds int
	// Seed is the deterministic RNG seed for workload generation and
	// the finder.
	Seed uint64
	// Workers caps finder parallelism (0 = GOMAXPROCS).
	Workers int
}

// ScaleSmall runs every experiment in a few seconds on 2 cores —
// the default for tests and benchmarks.
var ScaleSmall = Config{Scale: 0.08, Seeds: 48, Seed: 1}

// ScaleMedium is a heavier preset for workstation runs.
var ScaleMedium = Config{Scale: 0.25, Seeds: 100, Seed: 1}

// ScaleFull reruns the paper's exact sizes (hours on a laptop).
var ScaleFull = Config{Scale: 1.0, Seeds: 100, Seed: 1}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// ResolvedWorkers reports the engine worker count the Config actually
// runs with: Workers when positive, otherwise GOMAXPROCS — the same
// default the engine applies to Options.Workers <= 0. Bench records
// emit this resolved value (never the raw 0) so artifacts stay
// self-describing about the parallelism they were measured under.
func (c Config) ResolvedWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// WriteRecord saves an experiment's record (MultilevelRecord,
// IncrementalRecord, ParallelRecord or HotPathRecord) as indented
// JSON: the BENCH_*.json files gtlexp -dump writes.
func WriteRecord(path string, rec any) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BlockOutcome describes how the finder did on one ground-truth block.
type BlockOutcome struct {
	TruthSize int
	FoundSize int
	Cut       int
	NGTLS     float64
	GTLSD     float64
	MissPct   float64 // % of truth cells missed
	OverPct   float64 // % extra cells relative to truth
	Found     bool
}

// matchOutcome pairs a truth block with its best-overlap GTL.
func matchOutcome(truth []netlist.CellID, gtls []tanglefind.GTL) BlockOutcome {
	out := BlockOutcome{TruthSize: len(truth)}
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
		return out
	}
	g := &gtls[bestIdx]
	out.Found = true
	out.FoundSize = g.Size()
	out.Cut = g.Cut
	out.NGTLS = g.NGTLS
	out.GTLSD = g.GTLSD
	out.MissPct = 100 * float64(len(truth)-bestHit) / float64(len(truth))
	out.OverPct = 100 * float64(g.Size()-bestHit) / float64(len(truth))
	return out
}

// findCtx runs one engine-backed detection pass over nl under ctx.
// Experiments build each workload once and run it once, so the engine
// lives for just that run; the ablation sweep, which reruns one
// workload many times, keeps its engine across variants instead.
func findCtx(ctx context.Context, nl *netlist.Netlist, opt tanglefind.Options) (*tanglefind.Result, error) {
	f, err := tanglefind.NewFinder(nl)
	if err != nil {
		return nil, err
	}
	return f.Find(ctx, opt)
}

// finderOptions derives finder options sized for a workload of
// numCells cells whose largest expected GTL has maxBlock cells. Z is
// kept well below |V| — an ordering that swallows the whole netlist
// ends at cut 0 and score 0, which would defeat Phase II's
// interior-minimum test.
func (c Config) finderOptions(maxBlock, numCells int) tanglefind.Options {
	opt := tanglefind.DefaultOptions()
	opt.Seeds = c.Seeds
	opt.RandSeed = c.Seed
	opt.Workers = c.Workers
	z := 4 * maxBlock
	if z < 2000 {
		z = 2000
	}
	if z > numCells/2 {
		z = numCells / 2
	}
	if z < 2*maxBlock {
		z = 2 * maxBlock // blocks may cover a large design fraction
	}
	if z > 100_000 {
		z = 100_000 // the paper's cap
	}
	opt.MaxOrderLen = z
	return opt
}

// ---------------------------------------------------------------------
// Table 1 — random graphs with planted GTLs.
// ---------------------------------------------------------------------

// Table1Case describes one of the paper's four random-graph cases.
type Table1Case struct {
	Name   string
	Cells  int
	Blocks []int
}

// Table1Cases mirrors the paper's Table 1 workloads.
var Table1Cases = []Table1Case{
	{"case1", 10_000, []int{500}},
	{"case2", 100_000, []int{2000, 15_000}},
	{"case3", 100_000, []int{5000}},
	{"case4", 800_000, []int{40_000, 40_000, 40_000, 40_000, 40_000, 40_000}},
}

// Table1Result is the measured analog of one Table 1 row group.
type Table1Result struct {
	Case      Table1Case
	Cells     int // after scaling
	Found     int
	Blocks    []BlockOutcome
	Elapsed   time.Duration
	Spurious  int // found GTLs not matching any block
	SeedsUsed int // may exceed Config.Seeds (small-block coverage)
}

// Table1Workload builds one case's scaled random graph, returning the
// generated workload and the spec it was built from. Exposed so the
// CLI tools can regenerate and save the exact experiment inputs.
func Table1Workload(cs Table1Case, cfg Config) (*generate.RandomGraph, generate.RandomGraphSpec, error) {
	spec := generate.RandomGraphSpec{
		Cells: cfg.scaled(cs.Cells),
		Seed:  cfg.Seed*1000 + 11,
	}
	blockTotal, origBlockTotal := 0, 0
	for _, b := range cs.Blocks {
		origBlockTotal += b
		size := cfg.scaled(b)
		if size < 48 {
			size = 48 // blocks below ~2x MinGroupSize degenerate
		}
		spec.Blocks = append(spec.Blocks, generate.BlockSpec{Size: size})
		blockTotal += size
	}
	// Block flooring at tiny scales can leave the blocks a larger
	// design fraction than the paper's; restore the paper's
	// block/background proportions (a no-op at full scale).
	if want := blockTotal * cs.Cells / origBlockTotal; spec.Cells < want {
		spec.Cells = want
	}
	if spec.Cells < 2500 {
		spec.Cells = 2500
	}
	rg, err := generate.NewRandomGraph(spec)
	if err != nil {
		return nil, spec, fmt.Errorf("table1 %s: %w", cs.Name, err)
	}
	return rg, spec, nil
}

// Table1Run executes one case.
func Table1Run(ctx context.Context, cs Table1Case, cfg Config) (*Table1Result, error) {
	rg, spec, err := Table1Workload(cs, cfg)
	if err != nil {
		return nil, err
	}
	maxBlock := 0
	for _, b := range spec.Blocks {
		if b.Size > maxBlock {
			maxBlock = b.Size
		}
	}
	opt := cfg.finderOptions(maxBlock, spec.Cells)
	// Deterministic full recovery needs every block to receive a seed:
	// aim for ~5 expected seeds in the smallest block (the blocks are
	// scattered across the id space, so seed stratification cannot
	// guarantee hits and the miss chance is ~e^-5 ≈ 0.7%). The paper's
	// fixed m=100 leaves case 2's small block a ~13% miss chance per
	// run, which a single lucky run can hide but a reproduction
	// cannot.
	minBlock := spec.Blocks[0].Size
	for _, b := range spec.Blocks {
		if b.Size < minBlock {
			minBlock = b.Size
		}
	}
	if want := 5 * spec.Cells / minBlock; opt.Seeds < want {
		opt.Seeds = want
	}
	res, err := findCtx(ctx, rg.Netlist, opt)
	if err != nil {
		return nil, err
	}
	out := &Table1Result{Case: cs, Cells: spec.Cells, Found: len(res.GTLs), Elapsed: res.Elapsed, SeedsUsed: opt.Seeds}
	matched := make(map[int]bool)
	for _, truth := range rg.Blocks {
		o := matchOutcome(truth, res.GTLs)
		out.Blocks = append(out.Blocks, o)
		if o.Found {
			for i := range res.GTLs {
				if res.GTLs[i].Size() == o.FoundSize && res.GTLs[i].Cut == o.Cut {
					matched[i] = true
				}
			}
		}
	}
	for i := range res.GTLs {
		if !matched[i] {
			out.Spurious++
		}
	}
	return out, nil
}

// Table1 runs all four cases and renders the paper-style table.
func Table1(ctx context.Context, cfg Config, w io.Writer) ([]*Table1Result, error) {
	tbl := report.New("Table 1: experimental results on random graphs (scaled)",
		"Case", "|V|", "Planted", "#seeds", "#GTL", "GTL size", "nGTL-S", "GTL-SD", "Miss%", "Over%")
	var results []*Table1Result
	for _, cs := range Table1Cases {
		r, err := Table1Run(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		for i, b := range r.Blocks {
			name, planted := "", ""
			if i == 0 {
				name = cs.Name
				planted = fmt.Sprintf("%d blocks", len(cs.Blocks))
			}
			if !b.Found {
				tbl.Row(name, r.Cells, planted, r.SeedsUsed, r.Found, "MISSED", "-", "-", "-", "-")
				continue
			}
			tbl.Row(name, r.Cells, planted, r.SeedsUsed, r.Found,
				b.FoundSize, b.NGTLS, b.GTLSD,
				fmt.Sprintf("%.2f", b.MissPct), fmt.Sprintf("%.2f", b.OverPct))
		}
	}
	if w != nil {
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ---------------------------------------------------------------------
// Table 2 — ISPD benchmark proxies.
// ---------------------------------------------------------------------

// Table2Result is the measured analog of one Table 2 row group.
type Table2Result struct {
	Name    string
	Cells   int
	Found   int
	Top     []tanglefind.GTL // up to 3 best
	Elapsed time.Duration
}

// Table2Run executes one ISPD profile.
func Table2Run(ctx context.Context, p generate.ISPDProfile, cfg Config) (*Table2Result, error) {
	d, err := generate.NewISPDProxy(p, cfg.Scale, cfg.Seed*100+7)
	if err != nil {
		return nil, err
	}
	maxBlock := 0
	for _, s := range d.Structures {
		if len(s) > maxBlock {
			maxBlock = len(s)
		}
	}
	opt := cfg.finderOptions(maxBlock, d.Netlist.NumCells())
	res, err := findCtx(ctx, d.Netlist, opt)
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Name: p.Name, Cells: d.Netlist.NumCells(), Found: len(res.GTLs), Elapsed: res.Elapsed}
	for i := 0; i < len(res.GTLs) && i < 3; i++ {
		out.Top = append(out.Top, res.GTLs[i])
	}
	return out, nil
}

// Table2 runs all six profiles.
func Table2(ctx context.Context, cfg Config, w io.Writer) ([]*Table2Result, error) {
	tbl := report.New("Table 2: ISPD 05/06 proxy benchmarks (scaled)",
		"Case", "|V|", "#seeds", "#GTL", "Top GTL", "size", "Cut", "GTL-S", "GTL-SD", "Runtime")
	var results []*Table2Result
	for _, p := range generate.ISPDProfiles {
		r, err := Table2Run(ctx, p, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		for i, g := range r.Top {
			name, cells, seeds, found, rt := "", "", "", "", ""
			if i == 0 {
				name = r.Name
				cells = fmt.Sprintf("%d", r.Cells)
				seeds = fmt.Sprintf("%d", cfg.Seeds)
				found = fmt.Sprintf("%d", r.Found)
				rt = r.Elapsed.Round(time.Millisecond).String()
			}
			tbl.Row(name, cells, seeds, found,
				fmt.Sprintf("Structure %d", i+1), g.Size(), g.Cut, g.NGTLS, g.GTLSD, rt)
		}
	}
	if w != nil {
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ---------------------------------------------------------------------
// Table 3 — industrial circuit proxy.
// ---------------------------------------------------------------------

// Table3Result is the measured analog of Table 3.
type Table3Result struct {
	Cells   int
	Blocks  []BlockOutcome
	Elapsed time.Duration
}

// Table3Run builds the industrial proxy and scores the finder on the
// five dissolved-ROM blocks.
func Table3Run(ctx context.Context, cfg Config) (*Table3Result, error) {
	d, err := generate.NewIndustrialProxy(cfg.Scale, cfg.Seed*10+3)
	if err != nil {
		return nil, err
	}
	maxBlock := 0
	for _, s := range d.Structures {
		if len(s) > maxBlock {
			maxBlock = len(s)
		}
	}
	opt := cfg.finderOptions(maxBlock, d.Netlist.NumCells())
	// The industrial blocks cover a large fraction of the design, but
	// the smallest one is only ~2% of the cells; deterministic full
	// recovery wants ~3 expected seeds in it (the paper used a flat
	// 100 on a circuit whose blocks were proportionally larger).
	minBlock := len(d.Structures[0])
	for _, s := range d.Structures {
		if len(s) < minBlock {
			minBlock = len(s)
		}
	}
	if want := 5 * d.Netlist.NumCells() / minBlock; opt.Seeds < want {
		opt.Seeds = want
	}
	if opt.Seeds < 100 {
		opt.Seeds = 100
	}
	res, err := findCtx(ctx, d.Netlist, opt)
	if err != nil {
		return nil, err
	}
	out := &Table3Result{Cells: d.Netlist.NumCells(), Elapsed: res.Elapsed}
	for _, truth := range d.Structures {
		out.Blocks = append(out.Blocks, matchOutcome(truth, res.GTLs))
	}
	return out, nil
}

// Table3 renders the industrial-circuit table.
func Table3(ctx context.Context, cfg Config, w io.Writer) (*Table3Result, error) {
	r, err := Table3Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tbl := report.New("Table 3: GTLs found on the industrial proxy (scaled)",
		"Size in design", "Size found", "Cut", "GTL-Score")
	for _, b := range r.Blocks {
		if !b.Found {
			tbl.Row(b.TruthSize, "MISSED", "-", "-")
			continue
		}
		tbl.Row(b.TruthSize, b.FoundSize, b.Cut, b.GTLSD)
	}
	if w != nil {
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ---------------------------------------------------------------------
// Helpers shared by the figure experiments.
// ---------------------------------------------------------------------

// sampleCurve thins a score curve to at most n (size, value) points for
// printing.
func sampleCurve(scores []float64, n int) [][2]float64 {
	if n < 2 {
		n = 2
	}
	var out [][2]float64
	step := float64(len(scores)) / float64(n)
	if step < 1 {
		step = 1
	}
	for f := 0.0; int(f) < len(scores); f += step {
		k := int(f)
		out = append(out, [2]float64{float64(k + 1), scores[k]})
	}
	last := len(scores) - 1
	if len(out) == 0 || int(out[len(out)-1][0]) != last+1 {
		out = append(out, [2]float64{float64(last + 1), scores[last]})
	}
	return out
}

// argmin returns the index of the smallest finite value.
func argmin(scores []float64, from int) (int, float64) {
	bestK, bestV := -1, math.Inf(1)
	for k := from; k < len(scores); k++ {
		if scores[k] < bestV {
			bestV, bestK = scores[k], k
		}
	}
	return bestK, bestV
}
