package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"tanglefind"
	"tanglefind/internal/ds"
	"tanglefind/internal/generate"
	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
	"tanglefind/internal/place"
	"tanglefind/internal/report"
	"tanglefind/internal/route"
	"tanglefind/internal/viz"
)

// Figure23Result captures the two agglomeration curves of Figures 2
// and 3: one seed inside the planted 40K-cell GTL, one outside.
type Figure23Result struct {
	Metric       tanglefind.Metric
	BlockSize    int
	InsideMinK   int     // group size at the inside curve's minimum
	InsideMinV   float64 // score at that minimum
	OutsideMinV  float64 // smallest score on the outside curve (past warm-up)
	OutsideEndV  float64 // outside curve's final value (the ~0.9 asymptote)
	InsideCurve  [][2]float64
	OutsideCurve [][2]float64
}

// Figure23 regenerates Figure 2 (nGTL-S) or Figure 3 (GTL-SD): the
// paper's 250K-cell random graph with one 40K-cell GTL, two
// agglomerations, score versus group size.
func Figure23(ctx context.Context, metric tanglefind.Metric, cfg Config, w io.Writer) (*Figure23Result, error) {
	cells := cfg.scaled(250_000)
	block := cfg.scaled(40_000)
	if block < 200 {
		block = 200
	}
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  cells,
		Blocks: []generate.BlockSpec{{Size: block}},
		Seed:   cfg.Seed*7 + 2,
	})
	if err != nil {
		return nil, err
	}
	nl := rg.Netlist
	aG := nl.AvgPins()
	inBlock := make(map[netlist.CellID]bool, block)
	for _, c := range rg.Blocks[0] {
		inBlock[c] = true
	}
	rng := ds.NewRNG(cfg.Seed + 99)
	seedIn := rg.Blocks[0][rng.Intn(block)]
	var seedOut netlist.CellID
	for {
		seedOut = netlist.CellID(rng.Intn(cells))
		if !inBlock[seedOut] {
			break
		}
	}
	opt := tanglefind.DefaultOptions()
	z := 2 * block
	curveFor := func(seed netlist.CellID) *tanglefind.Curve {
		ord := tanglefind.GrowOrdering(nl, seed, z, opt)
		return tanglefind.ScoreCurve(nl, ord, metric, aG)
	}
	cIn := curveFor(seedIn)
	cOut := curveFor(seedOut)
	res := &Figure23Result{Metric: metric, BlockSize: block}
	warm := 24
	k, v := argmin(cIn.Scores, warm)
	res.InsideMinK, res.InsideMinV = k+1, v
	_, res.OutsideMinV = argmin(cOut.Scores, warm)
	res.OutsideEndV = cOut.Scores[len(cOut.Scores)-1]
	res.InsideCurve = sampleCurve(cIn.Scores, 40)
	res.OutsideCurve = sampleCurve(cOut.Scores, 40)
	if w != nil {
		fig := "Figure 2"
		if metric == tanglefind.MetricGTLSD {
			fig = "Figure 3"
		}
		fmt.Fprintf(w, "%s: %s vs group size (|V|=%d, planted GTL=%d cells)\n",
			fig, metric, cells, block)
		fmt.Fprintf(w, "  inside-seed minimum: score %.4f at size %d (planted %d)\n",
			res.InsideMinV, res.InsideMinK, block)
		fmt.Fprintf(w, "  outside-seed minimum %.4f, asymptote %.4f\n\n", res.OutsideMinV, res.OutsideEndV)
		tbl := report.New("  size : inside-seed score : outside-seed score", "size", "inside", "outside")
		for i := range res.InsideCurve {
			in := res.InsideCurve[i]
			out := [2]float64{0, 0}
			if i < len(res.OutsideCurve) {
				out = res.OutsideCurve[i]
			}
			tbl.Row(int(in[0]), in[1], out[1])
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Figure5Result captures the three-metric comparison along one linear
// ordering of the Bigblue1 proxy.
type Figure5Result struct {
	NGTLSMinK, GTLSDMinK int // interior minima locations
	RatioCutMinK         int // ratio cut's minimum location
	OrderLen             int
	NGTLS, GTLSD, Ratio  [][2]float64
}

// Figure5 regenerates Figure 5: nGTL-S, GTL-SD and ratio cut T(C)/|C|
// versus prefix size along one linear ordering of a Bigblue1-like
// circuit, demonstrating that ratio cut's minimum sits at the right end
// while the GTL metrics dip at the structure boundary.
//
// The workload is a dedicated variant of the Bigblue1 proxy: its
// planted structure has a *moderate* score (the paper's Bigblue1
// Structure 1 scores 0.14, not the ~0.02 of the dissolved ROMs),
// because ratio cut's large-size bias only separates from the GTL
// metrics when the structure's dip is not overwhelmingly deep.
func Figure5(ctx context.Context, cfg Config, w io.Writer) (*Figure5Result, error) {
	// A Rent-obeying hierarchical host is essential here: in a uniform
	// random graph the background cut grows linearly, so ratio cut's
	// asymptote never undercuts the structure dip and the baseline
	// would falsely look dip-seeking.
	p, _ := generate.ProfileByName("bigblue1")
	hostCells := cfg.scaled(p.Cells)
	if hostCells < 20_000 {
		hostCells = 20_000
	}
	structSize := cfg.scaled(6187) // the paper's Bigblue1 Structure 1
	if structSize < 300 {
		structSize = 300
	}
	// Interface width targeting nGTL-S ≈ 0.30 with A_G ≈ 4, p ≈ 0.65:
	// deep enough that both GTL metrics dip at the structure (the
	// hierarchical host's own module boundaries reach ≈ 0.65), shallow
	// enough that ratio cut still prefers the right end of the curve.
	openNets := int(0.30 * 4 * math.Pow(float64(structSize), 0.65))
	b, hostOpen, err := generate.NewHierarchicalHost(generate.HierSpec{
		Cells: hostCells, Rent: p.Rent, Seed: cfg.Seed*100 + 41,
	})
	if err != nil {
		return nil, err
	}
	rng := ds.NewRNG(cfg.Seed*100 + 43)
	structure := generate.Embed(b, generate.DissolvedROM(structSize, openNets, cfg.Seed+5), hostOpen, rng)
	nl, err := b.Build()
	if err != nil {
		return nil, err
	}
	aG := nl.AvgPins()
	seed := structure[0]
	z := 20 * structSize
	if z > nl.NumCells()/2 {
		z = nl.NumCells() / 2
	}
	opt := tanglefind.DefaultOptions()
	ord := tanglefind.GrowOrdering(nl, seed, z, opt)
	cN := tanglefind.ScoreCurve(nl, ord, tanglefind.MetricNGTLS, aG)
	cD := tanglefind.ScoreCurve(nl, ord, tanglefind.MetricGTLSD, aG)
	ratio := make([]float64, ord.Len())
	for k := 1; k <= ord.Len(); k++ {
		ratio[k-1] = metrics.RatioCut(int(ord.Cuts[k-1]), k)
	}
	res := &Figure5Result{OrderLen: ord.Len()}
	warm := 24
	kN, _ := argmin(cN.Scores, warm)
	kD, _ := argmin(cD.Scores, warm)
	kR, _ := argmin(ratio, warm)
	res.NGTLSMinK, res.GTLSDMinK, res.RatioCutMinK = kN+1, kD+1, kR+1
	res.NGTLS = sampleCurve(cN.Scores, 40)
	res.GTLSD = sampleCurve(cD.Scores, 40)
	res.Ratio = sampleCurve(ratio, 40)
	if w != nil {
		fmt.Fprintf(w, "Figure 5: metric curves along one Bigblue1-proxy ordering (len=%d, planted structure=%d cells)\n",
			ord.Len(), structSize)
		fmt.Fprintf(w, "  minima: nGTL-S@%d GTL-SD@%d ratio-cut@%d (ordering end=%d)\n\n",
			res.NGTLSMinK, res.GTLSDMinK, res.RatioCutMinK, ord.Len())
		tbl := report.New("", "size", "nGTL-S", "GTL-SD", "ratio-cut")
		for i := range res.NGTLS {
			tbl.Row(int(res.NGTLS[i][0]), res.NGTLS[i][1], res.GTLSD[i][1], res.Ratio[i][1])
		}
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Figure46Result captures the placement-overlay renders of Figures 4
// and 6.
type Figure46Result struct {
	GTLs  int
	ASCII string
}

// Figure46 places a design, finds its GTLs and renders the overlay.
// design selects "bigblue1" (Figure 4) or "industrial" (Figure 6).
// When pgm is non-nil a PPM image is written to it as well.
func Figure46(ctx context.Context, design string, cfg Config, w io.Writer, ppm io.Writer) (*Figure46Result, error) {
	var nl *netlist.Netlist
	var maxBlock int
	switch design {
	case "industrial":
		d, err := generate.NewIndustrialProxy(cfg.Scale, cfg.Seed*10+3)
		if err != nil {
			return nil, err
		}
		nl = d.Netlist
		for _, s := range d.Structures {
			if len(s) > maxBlock {
				maxBlock = len(s)
			}
		}
	default:
		p, ok := generate.ProfileByName(design)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown design %q", design)
		}
		d, err := generate.NewISPDProxy(p, cfg.Scale, cfg.Seed*100+7)
		if err != nil {
			return nil, err
		}
		nl = d.Netlist
		for _, s := range d.Structures {
			if len(s) > maxBlock {
				maxBlock = len(s)
			}
		}
	}
	opt := cfg.finderOptions(maxBlock, nl.NumCells())
	if opt.Seeds < 100 {
		opt.Seeds = 100
	}
	res, err := findCtx(ctx, nl, opt)
	if err != nil {
		return nil, err
	}
	pl, err := place.Place(nl, place.Rect{}, place.Options{Seed: cfg.Seed + 31})
	if err != nil {
		return nil, err
	}
	groups := make([][]netlist.CellID, len(res.GTLs))
	for i := range res.GTLs {
		groups[i] = res.GTLs[i].Members
	}
	var buf limitedBuilder
	if err := viz.PlacementASCII(pl, groups, 48, &buf); err != nil {
		return nil, err
	}
	if ppm != nil {
		if err := viz.PlacementPPM(pl, groups, 512, ppm); err != nil {
			return nil, err
		}
	}
	out := &Figure46Result{GTLs: len(res.GTLs), ASCII: buf.String()}
	if w != nil {
		fmt.Fprintf(w, "Figure 4/6 (%s): placement with %d GTLs overlaid (digits mark GTL tiles)\n%s\n",
			design, len(res.GTLs), out.ASCII)
	}
	return out, nil
}

// InflationResult captures the §5.1.3 cell-inflation experiment
// (Figures 1 and 7 plus the congestion statistics).
type InflationResult struct {
	Before, After route.Stats
	// Ratio100 etc. are before/after improvement factors.
	Ratio100, Ratio90, RatioAvg float64
	FoundGTLs                   int
}

// Inflation runs the end-to-end flow: find GTLs on the industrial
// proxy, place, measure congestion, inflate the found GTL cells 4×,
// re-place, re-measure. Unlike the route package's unit test, this uses
// the *found* GTLs, not ground truth — the full pipeline of the paper.
// When asciiW is non-nil, before/after congestion maps render to it.
func Inflation(ctx context.Context, cfg Config, w io.Writer, asciiW io.Writer) (*InflationResult, error) {
	d, err := generate.NewIndustrialProxy(cfg.Scale, cfg.Seed*10+3)
	if err != nil {
		return nil, err
	}
	nl := d.Netlist
	maxBlock := 0
	for _, s := range d.Structures {
		if len(s) > maxBlock {
			maxBlock = len(s)
		}
	}
	opt := cfg.finderOptions(maxBlock, nl.NumCells())
	if opt.Seeds < 100 {
		opt.Seeds = 100
	}
	found, err := findCtx(ctx, nl, opt)
	if err != nil {
		return nil, err
	}
	groups := make([][]netlist.CellID, len(found.GTLs))
	for i := range found.GTLs {
		groups[i] = found.GTLs[i].Members
	}

	pl, err := place.Place(nl, place.Rect{}, place.Options{Seed: cfg.Seed + 13})
	if err != nil {
		return nil, err
	}
	grid := 48
	before, err := route.Estimate(nl, pl, grid, grid)
	if err != nil {
		return nil, err
	}
	before.SetCapacityRelative(1.25)
	stBefore := route.ComputeStats(nl, pl, before)

	inflated, err := place.Inflate(nl, groups, 4)
	if err != nil {
		return nil, err
	}
	pl2, err := place.Place(inflated, place.Rect{}, place.Options{Seed: cfg.Seed + 13})
	if err != nil {
		return nil, err
	}
	after, err := route.Estimate(inflated, pl2, grid, grid)
	if err != nil {
		return nil, err
	}
	// Hold absolute capacity per unit die area fixed across the runs.
	after.Capacity = before.Capacity * (after.Die.Area() / float64(after.W*after.H)) /
		(before.Die.Area() / float64(before.W*before.H))
	stAfter := route.ComputeStats(inflated, pl2, after)

	res := &InflationResult{Before: stBefore, After: stAfter, FoundGTLs: len(found.GTLs)}
	res.Ratio100 = ratio(stBefore.NetsThrough100, stAfter.NetsThrough100)
	res.Ratio90 = ratio(stBefore.NetsThrough90, stAfter.NetsThrough90)
	if stAfter.AvgWorst20 > 0 {
		res.RatioAvg = stBefore.AvgWorst20 / stAfter.AvgWorst20
	}
	if w != nil {
		tbl := report.New("Cell inflation on the industrial proxy (paper §5.1.3 / Figures 1, 7)",
			"Metric", "Before", "After", "Factor")
		tbl.Row("nets through >=100% tiles", res.Before.NetsThrough100, res.After.NetsThrough100,
			fmt.Sprintf("%.1fx", res.Ratio100))
		tbl.Row("nets through >=90% tiles", res.Before.NetsThrough90, res.After.NetsThrough90,
			fmt.Sprintf("%.1fx", res.Ratio90))
		tbl.Row("avg congestion (worst 20% nets)",
			fmt.Sprintf("%.0f%%", 100*res.Before.AvgWorst20),
			fmt.Sprintf("%.0f%%", 100*res.After.AvgWorst20),
			fmt.Sprintf("%.2fx", res.RatioAvg))
		tbl.Row("max tile utilization",
			fmt.Sprintf("%.0f%%", 100*res.Before.MaxTile),
			fmt.Sprintf("%.0f%%", 100*res.After.MaxTile), "")
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	if asciiW != nil {
		fmt.Fprintf(asciiW, "\nFigure 1 (before inflation):\n")
		if err := viz.CongestionASCII(before, asciiW); err != nil {
			return nil, err
		}
		fmt.Fprintf(asciiW, "\nFigure 7 (after 4x inflation of found GTLs):\n")
		if err := viz.CongestionASCII(after, asciiW); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func ratio(before, after int) float64 {
	if after == 0 {
		if before == 0 {
			return 1
		}
		return float64(before)
	}
	return float64(before) / float64(after)
}

// limitedBuilder is a strings.Builder look-alike that satisfies
// io.Writer; kept tiny to avoid importing strings in the hot path.
type limitedBuilder struct{ b []byte }

func (l *limitedBuilder) Write(p []byte) (int, error) {
	l.b = append(l.b, p...)
	return len(p), nil
}

func (l *limitedBuilder) String() string { return string(l.b) }
