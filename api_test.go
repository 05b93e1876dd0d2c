package tanglefind_test

import (
	"context"
	"fmt"
	"testing"

	"tanglefind"
)

// TestPublicAPIFlow exercises the whole facade: generate → find →
// place → congest → all three mitigations.
func TestPublicAPIFlow(t *testing.T) {
	rg, err := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{
		Cells:  8000,
		Blocks: []tanglefind.BlockSpec{{Size: 800}},
		Seed:   12,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	if nl.AvgPins() <= 0 {
		t.Fatal("bad netlist")
	}

	opt := tanglefind.DefaultOptions()
	opt.Seeds = 48
	opt.MaxOrderLen = 3000
	res, err := tanglefind.Find(nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GTLs) == 0 {
		t.Fatal("no GTLs found")
	}
	g := res.GTLs[0]
	if g.Size() < 700 || g.GTLSD > 0.2 {
		t.Errorf("best GTL: size %d score %.3f", g.Size(), g.GTLSD)
	}

	// Scores agree with the standalone metric functions.
	if got := tanglefind.GTLSD(g.Cut, g.Size(), g.Pins, g.Rent, res.AG); got != g.GTLSD {
		t.Errorf("GTLSD mismatch: %v vs %v", got, g.GTLSD)
	}
	if got := tanglefind.NGTLScore(g.Cut, g.Size(), g.Rent, res.AG); got != g.NGTLS {
		t.Errorf("NGTLScore mismatch: %v vs %v", got, g.NGTLS)
	}
	if rc := tanglefind.RatioCut(g.Cut, g.Size()); rc <= 0 {
		t.Errorf("RatioCut = %v", rc)
	}
	if _, ok := tanglefind.RentExponent(g.Cut, g.Size(), g.Pins); !ok {
		t.Error("RentExponent undefined for a real GTL")
	}

	groups := [][]tanglefind.CellID{g.Members}

	// Placement + congestion.
	pl, err := tanglefind.Place(nl, tanglefind.Rect{}, tanglefind.PlaceOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tanglefind.HPWL(nl, pl) <= 0 {
		t.Error("zero HPWL")
	}
	m, err := tanglefind.EstimateCongestion(nl, pl, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	m.SetCapacityRelative(1.2)
	st := tanglefind.CongestionStatsFor(nl, pl, m)
	if st.MaxTile <= 0 {
		t.Error("empty congestion map")
	}

	// Mitigation 1: inflation.
	inflated, err := tanglefind.Inflate(nl, groups, 4)
	if err != nil {
		t.Fatal(err)
	}
	if inflated.CellArea(g.Members[0]) != 4 {
		t.Error("inflation did not take")
	}

	// Mitigation 2: soft blocks.
	plSoft, err := tanglefind.PlaceSoftBlocks(nl, groups, tanglefind.Rect{}, tanglefind.PlaceOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tanglefind.HPWL(nl, plSoft) <= 0 {
		t.Error("soft-block placement degenerate")
	}
	cl, err := tanglefind.Cluster(nl, groups)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Clustered.NumCells() != nl.NumCells()-g.Size()+1 {
		t.Errorf("clustered cells = %d", cl.Clustered.NumCells())
	}

	// Mitigation 3: resynthesis.
	rs, err := tanglefind.Decompose(nl, groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.CellsAdded == 0 {
		t.Error("nothing decomposed in a dense block")
	}
	if err := rs.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeEngine exercises the engine surface through the facade:
// a reusable Finder with progress reporting, agreeing with the
// one-shot Find.
func TestFacadeEngine(t *testing.T) {
	rg, err := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{
		Cells:  6000,
		Blocks: []tanglefind.BlockSpec{{Size: 500}},
		Seed:   21,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := tanglefind.DefaultOptions()
	opt.Seeds = 32
	opt.MaxOrderLen = 2000
	ref, err := tanglefind.Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}

	f, err := tanglefind.NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	var last tanglefind.Progress
	opt.Progress = func(p tanglefind.Progress) { last = p }
	ctx := context.Background()
	res, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if last.SeedsDone != last.SeedsTotal || last.SeedsTotal == 0 {
		t.Errorf("final progress %+v, want all seeds done", last)
	}
	if len(res.GTLs) != len(ref.GTLs) {
		t.Fatalf("engine found %d GTLs, one-shot %d", len(res.GTLs), len(ref.GTLs))
	}
}

// TestFacadeOptionsWire covers the serving-layer exports: options
// parsing/round-tripping and the engine introspection types, all
// without touching internal packages.
func TestFacadeOptionsWire(t *testing.T) {
	opt, err := tanglefind.ParseOptions([]byte(`{"seeds": 9, "metric": "ngtls", "ordering": "bfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Seeds != 9 || opt.Metric != tanglefind.MetricNGTLS || opt.Ordering != tanglefind.OrderBFS {
		t.Errorf("parsed options = %+v", opt)
	}
	if opt.BigNetSkip != tanglefind.DefaultOptions().BigNetSkip {
		t.Error("unset fields lost their defaults")
	}
	if _, err := tanglefind.ParseOptions([]byte(`{"sneeds": 9}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if m, err := tanglefind.ParseMetric("gtlsd"); err != nil || m != tanglefind.MetricGTLSD {
		t.Errorf("ParseMetric = %v, %v", m, err)
	}
	if o, err := tanglefind.ParseOrdering("mincut"); err != nil || o != tanglefind.OrderMinCut {
		t.Errorf("ParseOrdering = %v, %v", o, err)
	}

	// The per-seed trace types are reachable through the facade.
	rg, err := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{Cells: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxOrderLen = 800
	res, err := tanglefind.Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	var traces []tanglefind.SeedTrace = res.Seeds
	if len(traces) != opt.Seeds {
		t.Fatalf("traces = %d, want %d", len(traces), opt.Seeds)
	}
	// A seed's score curve is reachable by re-growing its ordering.
	ord := tanglefind.GrowOrdering(rg.Netlist, traces[0].Seed, opt.MaxOrderLen, opt)
	var c *tanglefind.Curve = tanglefind.ScoreCurve(rg.Netlist, ord, opt.Metric, res.AG)
	if len(c.Scores) != traces[0].OrderLen {
		t.Errorf("curve through the facade has %d scores, want %d", len(c.Scores), traces[0].OrderLen)
	}
}

func TestISPDProfilesExposed(t *testing.T) {
	ps := tanglefind.ISPDProfiles()
	if len(ps) != 6 {
		t.Fatalf("profiles = %d, want 6", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.Cells < 100_000 {
			t.Errorf("%s: cells = %d", p.Name, p.Cells)
		}
	}
	for _, want := range []string{"bigblue1", "bigblue2", "bigblue3", "adaptec1", "adaptec2", "adaptec3"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
}

// ExampleFind demonstrates the minimal detection flow.
func ExampleFind() {
	rg, err := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{
		Cells:  10_000,
		Blocks: []tanglefind.BlockSpec{{Size: 500}},
		Seed:   7,
	})
	if err != nil {
		panic(err)
	}
	opt := tanglefind.DefaultOptions()
	opt.Seeds = 40
	opt.MaxOrderLen = 2000
	res, err := tanglefind.Find(rg.Netlist, opt)
	if err != nil {
		panic(err)
	}
	g := res.GTLs[0]
	fmt.Printf("found a %d-cell GTL with cut %d\n", g.Size(), g.Cut)
	// Output: found a 500-cell GTL with cut 16
}

func TestFacadeGenerators(t *testing.T) {
	h, err := tanglefind.NewHierarchical(tanglefind.HierSpec{Cells: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumCells() < 2000 {
		t.Errorf("hierarchical cells = %d", h.NumCells())
	}
	p := tanglefind.ISPDProfiles()[0]
	d, err := tanglefind.NewISPDProxy(p, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.Netlist.NumCells() < 4000 || len(d.Structures) == 0 {
		t.Errorf("proxy: %d cells, %d structures", d.Netlist.NumCells(), len(d.Structures))
	}
	ind, err := tanglefind.NewIndustrialProxy(0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ind.Structures) != 5 {
		t.Errorf("industrial structures = %d", len(ind.Structures))
	}
}

func TestFacadeScores(t *testing.T) {
	if got := tanglefind.GTLScore(100, 100, 1.0); got != 1.0 {
		t.Errorf("GTLScore = %v", got)
	}
	if got := tanglefind.RentMetric(10, 100); got <= 0 {
		t.Errorf("RentMetric = %v", got)
	}
}

func TestFacadeRoutingHelpers(t *testing.T) {
	rg, err := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{Cells: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tanglefind.Place(rg.Netlist, tanglefind.Rect{}, tanglefind.PlaceOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tanglefind.EstimateCongestionLRoute(rg.Netlist, pl, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanDemand() <= 0 {
		t.Error("empty L-route map")
	}
	if tanglefind.MSTWirelength(rg.Netlist, pl) < tanglefind.HPWL(rg.Netlist, pl) {
		t.Error("MST < HPWL")
	}
	before := tanglefind.HPWL(rg.Netlist, pl)
	tanglefind.RefinePlacement(rg.Netlist, pl, 2000, 7)
	if after := tanglefind.HPWL(rg.Netlist, pl); after > before+1e-9 {
		t.Errorf("refinement worsened HPWL: %v -> %v", before, after)
	}
}
