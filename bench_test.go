// Benchmarks regenerating every table and figure in the paper's
// evaluation chapter, plus ablations of the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at the small
// scale (paper sizes shrunk so the suite finishes on laptop cores; use
// cmd/gtlexp -scale full for paper-size runs) and reports the headline
// quantity of the table/figure as a custom metric alongside ns/op.
package tanglefind_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tanglefind/internal/core"
	"tanglefind/internal/experiments"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
	"tanglefind/internal/place"
	"tanglefind/internal/route"
)

// benchCfg keeps every benchmark iteration a few hundred ms on 2 cores.
var benchCfg = experiments.Config{Scale: 0.04, Seeds: 48, Seed: 1}

// ---------------------------------------------------------------------
// Table 1 — one benchmark per random-graph case.
// ---------------------------------------------------------------------

func benchTable1(b *testing.B, caseIdx int) {
	b.ReportAllocs()
	var worstMiss, worstOver float64
	found := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1Run(context.Background(), experiments.Table1Cases[caseIdx], benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		worstMiss, worstOver, found = 0, 0, 0
		for _, blk := range r.Blocks {
			if blk.Found {
				found++
			}
			if blk.MissPct > worstMiss {
				worstMiss = blk.MissPct
			}
			if blk.OverPct > worstOver {
				worstOver = blk.OverPct
			}
		}
	}
	b.ReportMetric(float64(found), "GTLs-found")
	b.ReportMetric(worstMiss, "worst-miss-%")
	b.ReportMetric(worstOver, "worst-over-%")
}

func BenchmarkTable1_Case1(b *testing.B) { benchTable1(b, 0) }
func BenchmarkTable1_Case2(b *testing.B) { benchTable1(b, 1) }
func BenchmarkTable1_Case3(b *testing.B) { benchTable1(b, 2) }
func BenchmarkTable1_Case4(b *testing.B) { benchTable1(b, 3) }

// ---------------------------------------------------------------------
// Table 2 — one benchmark per ISPD proxy circuit.
// ---------------------------------------------------------------------

func benchTable2(b *testing.B, name string) {
	b.ReportAllocs()
	p, ok := generate.ProfileByName(name)
	if !ok {
		b.Fatalf("unknown profile %s", name)
	}
	var found int
	var topScore float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2Run(context.Background(), p, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		found = r.Found
		if len(r.Top) > 0 {
			topScore = r.Top[0].GTLSD
		}
	}
	b.ReportMetric(float64(found), "GTLs-found")
	b.ReportMetric(topScore, "top-GTL-SD")
}

func BenchmarkTable2_Bigblue1(b *testing.B) { benchTable2(b, "bigblue1") }
func BenchmarkTable2_Bigblue2(b *testing.B) { benchTable2(b, "bigblue2") }
func BenchmarkTable2_Bigblue3(b *testing.B) { benchTable2(b, "bigblue3") }
func BenchmarkTable2_Adaptec1(b *testing.B) { benchTable2(b, "adaptec1") }
func BenchmarkTable2_Adaptec2(b *testing.B) { benchTable2(b, "adaptec2") }
func BenchmarkTable2_Adaptec3(b *testing.B) { benchTable2(b, "adaptec3") }

// ---------------------------------------------------------------------
// Table 3 — the industrial proxy.
// ---------------------------------------------------------------------

func BenchmarkTable3_Industrial(b *testing.B) {
	b.ReportAllocs()
	recovered := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3Run(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		recovered = 0
		for _, blk := range r.Blocks {
			if blk.Found && blk.MissPct <= 5 && blk.OverPct <= 5 {
				recovered++
			}
		}
	}
	b.ReportMetric(float64(recovered), "blocks-recovered")
}

// ---------------------------------------------------------------------
// Figures 2 and 3 — the agglomeration score curves.
// ---------------------------------------------------------------------

func benchFigure23(b *testing.B, m core.Metric) {
	b.ReportAllocs()
	var insideMin, outsideMin float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure23(context.Background(), m, benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		insideMin, outsideMin = r.InsideMinV, r.OutsideMinV
	}
	b.ReportMetric(insideMin, "inside-min")
	b.ReportMetric(outsideMin, "outside-min")
}

func BenchmarkFigure2_NGTLS(b *testing.B) { benchFigure23(b, core.MetricNGTLS) }
func BenchmarkFigure3_GTLSD(b *testing.B) { benchFigure23(b, core.MetricGTLSD) }

// ---------------------------------------------------------------------
// Figure 5 — metric comparison along one ordering.
// ---------------------------------------------------------------------

func BenchmarkFigure5_MetricCurves(b *testing.B) {
	b.ReportAllocs()
	var sep float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(context.Background(), benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		sep = float64(r.RatioCutMinK) / float64(r.NGTLSMinK)
	}
	// > 1 means ratio cut's minimum sits right of the GTL dip, the
	// paper's qualitative claim.
	b.ReportMetric(sep, "ratiocut-min/gtl-min")
}

// ---------------------------------------------------------------------
// Figures 4 and 6 — placement overlays.
// ---------------------------------------------------------------------

func BenchmarkFigure4_Bigblue1Overlay(b *testing.B) {
	b.ReportAllocs()
	gtls := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure46(context.Background(), "bigblue1", benchCfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		gtls = r.GTLs
	}
	b.ReportMetric(float64(gtls), "GTLs-shown")
}

func BenchmarkFigure6_IndustrialOverlay(b *testing.B) {
	b.ReportAllocs()
	gtls := 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure46(context.Background(), "industrial", benchCfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		gtls = r.GTLs
	}
	b.ReportMetric(float64(gtls), "GTLs-shown")
}

// ---------------------------------------------------------------------
// Figures 1 and 7 + §5.1.3 statistics — the inflation experiment.
// ---------------------------------------------------------------------

func BenchmarkFigure7_Inflation(b *testing.B) {
	b.ReportAllocs()
	var r *experiments.InflationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Inflation(context.Background(), benchCfg, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Ratio100, "overflow-reduction-x")
	b.ReportMetric(r.Ratio90, "near-overflow-reduction-x")
	b.ReportMetric(r.RatioAvg, "avg-congestion-reduction-x")
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).
// ---------------------------------------------------------------------

// ablationWorkload builds one shared workload: a random graph with a
// planted block, reused across ablation variants.
func ablationWorkload(b *testing.B) (*generate.RandomGraph, core.Options) {
	b.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  20_000,
		Blocks: []generate.BlockSpec{{Size: 1200}},
		Seed:   17,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 48
	opt.MaxOrderLen = 4000
	return rg, opt
}

func ablationRecovery(b *testing.B, rg *generate.RandomGraph, res *core.Result) float64 {
	b.Helper()
	in := make(map[netlist.CellID]bool, len(rg.Blocks[0]))
	for _, c := range rg.Blocks[0] {
		in[c] = true
	}
	best := 0
	for _, g := range res.GTLs {
		hit := 0
		for _, c := range g.Members {
			if in[c] {
				hit++
			}
		}
		if hit > best {
			best = hit
		}
	}
	return 100 * float64(best) / float64(len(rg.Blocks[0]))
}

func benchAblation(b *testing.B, mutate func(*core.Options)) {
	b.ReportAllocs()
	rg, opt := ablationWorkload(b)
	mutate(&opt)
	var recovery float64
	for i := 0; i < b.N; i++ {
		res, err := core.Find(rg.Netlist, opt)
		if err != nil {
			b.Fatal(err)
		}
		recovery = ablationRecovery(b, rg, res)
	}
	b.ReportMetric(recovery, "block-recovery-%")
}

// BenchmarkAblation_Ordering compares the paper's connection-weighted
// growth against plain min-cut greed and BFS (§3.2.1's argument).
func BenchmarkAblation_Ordering_Weighted(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Ordering = core.OrderWeighted })
}
func BenchmarkAblation_Ordering_MinCut(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Ordering = core.OrderMinCut })
}
func BenchmarkAblation_Ordering_BFS(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Ordering = core.OrderBFS })
}

// BenchmarkAblation_Refinement toggles Phase III (boundary-seed error
// recovery).
func BenchmarkAblation_Refinement_On(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Refine = true })
}
func BenchmarkAblation_Refinement_Off(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Refine = false })
}

// BenchmarkAblation_Metric compares nGTL-S and GTL-SD as the driver Φ.
func BenchmarkAblation_Metric_GTLSD(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Metric = core.MetricGTLSD })
}
func BenchmarkAblation_Metric_NGTLS(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.Metric = core.MetricNGTLS })
}

// BenchmarkAblation_BigNetSkip varies the paper's λ >= 20 update-skip
// threshold.
func BenchmarkAblation_BigNetSkip_20(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.BigNetSkip = 20 })
}
func BenchmarkAblation_BigNetSkip_Off(b *testing.B) {
	benchAblation(b, func(o *core.Options) { o.BigNetSkip = 0 })
}

// ---------------------------------------------------------------------
// Multilevel pipeline — flat vs coarsen → detect → project + refine on
// the same workloads, reporting the wall-clock speedup and the
// planted-cell recovery of the multilevel run. The CI bench-smoke
// shard executes this once per PR, so the speed/quality trade stays on
// the perf trajectory (gtlexp -exp multilevel -scale full regenerates
// the committed BENCH_multilevel.json record at paper scale).
// ---------------------------------------------------------------------

func BenchmarkMultilevel_FlatVsMultilevel(b *testing.B) {
	b.ReportAllocs()
	var speedup, recovery float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Multilevel(context.Background(), benchCfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		last := results[len(results)-1]
		speedup, recovery = last.Speedup, last.MultiRecovery
	}
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(recovery, "ml-recovery-%")
}

// ---------------------------------------------------------------------
// Incremental detection — full re-detection of an ECO-patched netlist
// vs FindIncremental reusing the baseline run's recorded seed state,
// on the Table 1 case 3 workload. Two edit classes: a localized
// background-site rewire (the common ECO; nearly every seed replays)
// and a rewire inside the planted tangle itself (the worst case: the
// tangle's own refined seeds must re-run). The CI bench-smoke shard
// executes this once per PR; gtlexp -exp incremental -dump .
// regenerates the committed BENCH_incremental.json record.
// ---------------------------------------------------------------------

func BenchmarkIncremental_DeltaVsFull(b *testing.B) {
	b.ReportAllocs()
	// Larger than benchCfg on purpose: seed-reuse physics (footprint
	// fraction vs dirty-region size) only shows at a realistic
	// block-to-netlist ratio; 0.04 scale turns Z into half the design.
	cfg := experiments.Config{Scale: 0.25, Seeds: 64, Seed: 1}
	var siteSpeedup, blockSpeedup, reused float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.Incremental(context.Background(), cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if !r.Match {
				b.Fatalf("%s: incremental diverged from full re-detection", r.Name)
			}
			switch r.Name {
			case "case3_site_edit":
				siteSpeedup = r.Speedup
				reused = float64(r.ReusedSeeds)
			case "case3_block_edit":
				blockSpeedup = r.Speedup
			}
		}
	}
	b.ReportMetric(siteSpeedup, "site-speedup-x")
	b.ReportMetric(blockSpeedup, "block-speedup-x")
	b.ReportMetric(reused, "site-seeds-reused")
}

// ---------------------------------------------------------------------
// Engine reuse. Each pair runs the identical workload twice per
// iteration: the Cold variant through the one-shot compatibility
// wrapper (a new engine per run), the Reused variant through one
// long-lived Finder. Growers, evaluators and ordering buffers come
// from the process-wide worker-state pool either way, so the pairs
// differ only in what an engine itself builds and caches. Compare
// allocs/op between the pairs.
// ---------------------------------------------------------------------

func engineBenchTable1(b *testing.B) (*netlist.Netlist, core.Options) {
	b.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  10_000, // Table 1 case 1 geometry
		Blocks: []generate.BlockSpec{{Size: 500}},
		Seed:   7,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 32
	opt.MaxOrderLen = 2000
	return rg.Netlist, opt
}

func engineBenchTable2(b *testing.B) (*netlist.Netlist, core.Options) {
	b.Helper()
	p, ok := generate.ProfileByName("bigblue1")
	if !ok {
		b.Fatal("bigblue1 profile missing")
	}
	d, err := generate.NewISPDProxy(p, benchCfg.Scale, benchCfg.Seed*100+7)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = benchCfg.Seeds
	opt.MaxOrderLen = d.Netlist.NumCells() / 2
	return d.Netlist, opt
}

func benchEngineCold(b *testing.B, nl *netlist.Netlist, opt core.Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 2; run++ {
			if _, err := core.Find(nl, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEngineReused(b *testing.B, nl *netlist.Netlist, opt core.Options) {
	f, err := core.NewFinder(nl)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Warm the engine and the shared pool so steady-state reuse is what
	// gets measured.
	if _, err := f.Find(ctx, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for run := 0; run < 2; run++ {
			if _, err := f.Find(ctx, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineColdFind2x_Table1Case1(b *testing.B) {
	nl, opt := engineBenchTable1(b)
	benchEngineCold(b, nl, opt)
}

func BenchmarkEngineReused2x_Table1Case1(b *testing.B) {
	nl, opt := engineBenchTable1(b)
	benchEngineReused(b, nl, opt)
}

func BenchmarkEngineColdFind2x_Table2Bigblue1(b *testing.B) {
	nl, opt := engineBenchTable2(b)
	benchEngineCold(b, nl, opt)
}

func BenchmarkEngineReused2x_Table2Bigblue1(b *testing.B) {
	nl, opt := engineBenchTable2(b)
	benchEngineReused(b, nl, opt)
}

// ---------------------------------------------------------------------
// CSR substrate — flat-layout traversal, clique expansion and binary
// I/O against the seed representations, on a 100K-cell netlist.
// ---------------------------------------------------------------------

// substrate100K builds the shared 100K-cell workload (Table 1 case 2/3
// geometry) once per benchmark binary.
var substrate100K = struct {
	once sync.Once
	nl   *netlist.Netlist
}{}

func bench100K(b *testing.B) *netlist.Netlist {
	b.Helper()
	substrate100K.once.Do(func() {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
			Cells:  100_000,
			Blocks: []generate.BlockSpec{{Size: 5000}},
			Seed:   11,
		})
		if err != nil {
			panic(err)
		}
		substrate100K.nl = rg.Netlist
	})
	return substrate100K.nl
}

// BenchmarkTraversal_CSR walks every cell's pins then every incident
// net's size — the finder's Phase I access pattern — over the flat CSR
// arrays.
func BenchmarkTraversal_CSR(b *testing.B) {
	nl := bench100K(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := 0
		for c := 0; c < nl.NumCells(); c++ {
			for _, n := range nl.CellPins(netlist.CellID(c)) {
				acc += nl.NetSize(n)
			}
		}
		if acc == 0 {
			b.Fatal("empty traversal")
		}
	}
}

// BenchmarkTraversal_Sliced is the same walk over the seed
// representation ([][]NetID / [][]CellID slice-of-slices), rebuilt
// here for comparison.
func BenchmarkTraversal_Sliced(b *testing.B) {
	nl := bench100K(b)
	cellPins := make([][]netlist.NetID, nl.NumCells())
	for c := range cellPins {
		cellPins[c] = append([]netlist.NetID(nil), nl.CellPins(netlist.CellID(c))...)
	}
	netPins := make([][]netlist.CellID, nl.NumNets())
	for n := range netPins {
		netPins[n] = append([]netlist.CellID(nil), nl.NetPins(netlist.NetID(n))...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := 0
		for c := range cellPins {
			for _, n := range cellPins[c] {
				acc += len(netPins[n])
			}
		}
		if acc == 0 {
			b.Fatal("empty traversal")
		}
	}
}

// BenchmarkLoad_TFNet and BenchmarkLoad_TFB parse the same 100K-cell
// netlist from memory; the acceptance target is binary >= 5x faster.
func BenchmarkLoad_TFNet(b *testing.B) {
	nl := bench100K(b)
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := netlist.Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got.NumPins() != nl.NumPins() {
			b.Fatal("load mismatch")
		}
	}
}

func BenchmarkLoad_TFB(b *testing.B) {
	nl := bench100K(b)
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := netlist.ReadBinary(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if got.NumPins() != nl.NumPins() {
			b.Fatal("load mismatch")
		}
	}
}

// BenchmarkBuild_100K measures Builder.Build's two-pass CSR assembly.
func BenchmarkBuild_100K(b *testing.B) {
	nl := bench100K(b)
	var bld netlist.Builder
	bld.AddCells(nl.NumCells())
	for n := 0; n < nl.NumNets(); n++ {
		bld.AddNet("", nl.NetPins(netlist.NetID(n))...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		if got.NumPins() != nl.NumPins() {
			b.Fatal("build mismatch")
		}
	}
}

// ---------------------------------------------------------------------
// Substrate microbenchmarks.
// ---------------------------------------------------------------------

func BenchmarkSubstrate_Place20K(b *testing.B) {
	b.ReportAllocs()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 20_000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(rg.Netlist, place.Rect{}, place.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_RUDY20K(b *testing.B) {
	b.ReportAllocs()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 20_000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	pl, err := place.Place(rg.Netlist, place.Rect{}, place.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Estimate(rg.Netlist, pl, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrate_Ordering(b *testing.B) {
	b.ReportAllocs()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  50_000,
		Blocks: []generate.BlockSpec{{Size: 4000}},
		Seed:   5,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ord := core.GrowOrdering(rg.Netlist, rg.Blocks[0][0], 8000, opt)
		if ord.Len() < 8000 {
			b.Fatalf("short ordering: %d", ord.Len())
		}
	}
}

// ---------------------------------------------------------------------
// Parallel scaling — the paper ran 8 pthreads and projects 2-5x gains
// from more parallel runs; these benches measure the goroutine pool's
// scaling on this machine.
// ---------------------------------------------------------------------

func benchWorkers(b *testing.B, workers int) {
	b.ReportAllocs()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  30_000,
		Blocks: []generate.BlockSpec{{Size: 2000}},
		Seed:   13,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 32
	opt.MaxOrderLen = 5000
	opt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Find(rg.Netlist, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallel_1Worker(b *testing.B)  { benchWorkers(b, 1) }
func BenchmarkParallel_2Workers(b *testing.B) { benchWorkers(b, 2) }

// BenchmarkFind_Parallel is the CI scaling smoke: the work-stealing
// scheduler on a multilevel workload at 1 worker and at NumCPU
// workers (deduplicated on single-core boxes), with the steal traffic
// reported as metrics. The committed BENCH_parallel.json record holds
// the full sweep; TestParallelScalingGuard compares a fresh
// measurement against it.
func BenchmarkFind_Parallel(b *testing.B) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  60_000,
		Blocks: []generate.BlockSpec{{Size: 3000}, {Size: 3000}},
		Seed:   19,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.NewFinder(rg.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 48
	opt.MaxOrderLen = 6000
	opt.Levels = 2
	opt.MinCoarseCells = 4096
	widths := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		opt.Workers = w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var steals, stolen int64
			for i := 0; i < b.N; i++ {
				res, err := f.Find(context.Background(), opt)
				if err != nil {
					b.Fatal(err)
				}
				if res.Sched != nil {
					steals, stolen = res.Sched.Steals, res.Sched.SeedsStolen
				}
			}
			b.ReportMetric(float64(steals), "steals")
			b.ReportMetric(float64(stolen), "seeds-stolen")
		})
	}
}

// BenchmarkFind_HotPath is the CI single-core smoke for the absorb
// loop: the flat pipeline at Workers=1 on one workload. Netlist and
// engine construction and one warm-up find stay outside the timed
// region, so every timed find runs on pooled worker states already
// bound to the netlist. The committed BENCH_hotpath.json record holds
// the full-scale measurement; TestHotPathSpeedupGuard validates it.
func BenchmarkFind_HotPath(b *testing.B) {
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  60_000,
		Blocks: []generate.BlockSpec{{Size: 3000}, {Size: 3000}},
		Seed:   19,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.NewFinder(rg.Netlist)
	if err != nil {
		b.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seeds = 48
	opt.MaxOrderLen = 6000
	opt.Workers = 1
	if _, err := f.Find(context.Background(), opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	gtls := 0
	for i := 0; i < b.N; i++ {
		res, err := f.Find(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		gtls = len(res.GTLs)
	}
	b.ReportMetric(float64(gtls), "GTLs")
}
