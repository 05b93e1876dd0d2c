package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tanglefind"
)

// tiny is a fast config for CI-style runs of the full suite.
var tiny = Config{Scale: 0.04, Seeds: 100, Seed: 1}

func TestTable1ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	results, err := Table1(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	for _, r := range results {
		for bi, b := range r.Blocks {
			if !b.Found {
				t.Errorf("%s block %d (%d cells): missed entirely", r.Case.Name, bi, b.TruthSize)
				continue
			}
			// Paper: miss <= 0.14%, over <= 0.5%. We allow a little
			// slack at reduced scale where blocks are tiny.
			if b.MissPct > 2 {
				t.Errorf("%s block %d: miss %.2f%% > 2%%", r.Case.Name, bi, b.MissPct)
			}
			if b.OverPct > 5 {
				t.Errorf("%s block %d: over %.2f%% > 5%%", r.Case.Name, bi, b.OverPct)
			}
			if b.NGTLS > 0.5 {
				t.Errorf("%s block %d: nGTL-S %.3f not « 1", r.Case.Name, bi, b.NGTLS)
			}
		}
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	results, err := Table2(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	for _, r := range results {
		if r.Found < 3 {
			t.Errorf("%s: found %d GTLs, want several", r.Name, r.Found)
			continue
		}
		if r.Top[0].Score > 0.4 {
			t.Errorf("%s: best GTL score %.3f, want « 1", r.Name, r.Top[0].Score)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny
	cfg.Seeds = 160
	r, err := Table3(context.Background(), cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	foundCount := 0
	for _, b := range r.Blocks {
		if b.Found && b.MissPct <= 5 && b.OverPct <= 5 {
			foundCount++
		}
	}
	if foundCount < len(r.Blocks)-1 {
		t.Errorf("recovered %d of %d industrial blocks", foundCount, len(r.Blocks))
	}
}

func TestFigure23Shapes(t *testing.T) {
	for _, m := range []tanglefind.Metric{tanglefind.MetricNGTLS, tanglefind.MetricGTLSD} {
		var buf bytes.Buffer
		r, err := Figure23(context.Background(), m, tiny, &buf)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: insideMin=%.4f@%d (block %d) outsideMin=%.4f end=%.4f",
			m, r.InsideMinV, r.InsideMinK, r.BlockSize, r.OutsideMinV, r.OutsideEndV)
		// Paper shape: inside curve dips deeply at the block size;
		// outside curve never goes anywhere near it.
		if r.InsideMinV > 0.3 {
			t.Errorf("%s: inside minimum %.3f, want deep dip", m, r.InsideMinV)
		}
		tol := int(float64(r.BlockSize) * 0.05)
		if r.InsideMinK < r.BlockSize-tol || r.InsideMinK > r.BlockSize+tol {
			t.Errorf("%s: inside minimum at %d, want near %d", m, r.InsideMinK, r.BlockSize)
		}
		if r.OutsideMinV < 3*r.InsideMinV {
			t.Errorf("%s: outside minimum %.3f too close to inside %.3f",
				m, r.OutsideMinV, r.InsideMinV)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	var buf bytes.Buffer
	r, err := Figure5(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	// Ratio cut favors ever-larger groups: its minimum must sit far
	// right of the structure boundary (it fails to identify the GTL),
	// while the GTL metrics dip at the structure. The hierarchy's
	// module completions make the ratio curve's right tail noisy, so
	// we assert the separation rather than an exact right-end pin.
	if r.RatioCutMinK < r.OrderLen/2 {
		t.Errorf("ratio-cut minimum at %d of %d; expected right-half bias", r.RatioCutMinK, r.OrderLen)
	}
	if r.RatioCutMinK < 3*r.NGTLSMinK {
		t.Errorf("ratio-cut minimum (%d) too close to the structure dip (%d)", r.RatioCutMinK, r.NGTLSMinK)
	}
	if r.NGTLSMinK >= (r.OrderLen*9)/10 {
		t.Errorf("nGTL-S minimum at %d of %d; expected interior dip", r.NGTLSMinK, r.OrderLen)
	}
	if r.GTLSDMinK >= (r.OrderLen*9)/10 {
		t.Errorf("GTL-SD minimum at %d of %d; expected interior dip", r.GTLSDMinK, r.OrderLen)
	}
}

func TestFigure46Renders(t *testing.T) {
	var buf bytes.Buffer
	r, err := Figure46(context.Background(), "industrial", tiny, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	if r.GTLs < 3 {
		t.Errorf("overlay shows %d GTLs, want >= 3", r.GTLs)
	}
	hasSymbol := false
	for _, line := range strings.Split(r.ASCII, "\n") {
		if strings.ContainsAny(line, "0123456789ABCDEF") {
			hasSymbol = true
			break
		}
	}
	if !hasSymbol {
		t.Error("ASCII overlay contains no GTL tiles")
	}
}

func TestInflationShape(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny
	r, err := Inflation(context.Background(), cfg, &buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	if r.FoundGTLs < 3 {
		t.Errorf("found %d GTLs before inflating, want >= 3", r.FoundGTLs)
	}
	if r.Before.NetsThrough100 == 0 {
		t.Fatal("baseline has no congestion; experiment vacuous")
	}
	// Paper: 5x reduction at >=100%, 2x at >=90%, 136%->91% average.
	// Shape requirement: clear improvement on all three.
	if r.Ratio100 < 1.3 {
		t.Errorf(">=100%% factor %.2fx, want clear reduction", r.Ratio100)
	}
	if r.Ratio90 < 1.1 {
		t.Errorf(">=90%% factor %.2fx, want reduction", r.Ratio90)
	}
	if r.RatioAvg < 1.05 {
		t.Errorf("avg-congestion factor %.2fx, want reduction", r.RatioAvg)
	}
	// When inflation eliminates overflow entirely the factors degrade
	// to the raw before-counts and their ordering is meaningless.
	if r.After.NetsThrough100 > 0 && r.Ratio100 < r.Ratio90 {
		t.Errorf("paper ordering violated: >=100%% factor (%.2f) < >=90%% factor (%.2f)",
			r.Ratio100, r.Ratio90)
	}
}

func TestAblationOrderingMatters(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Ablation(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + buf.String())
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	paper := byName["weighted ordering (paper)"]
	if paper.RecoveryP < 98 {
		t.Errorf("paper variant recovery %.1f%%, want ~100%%", paper.RecoveryP)
	}
	// §3.2.1: min-cut greed readily absorbs weakly connected outside
	// cells and misses the block.
	if mc := byName["min-cut greedy ordering"]; mc.RecoveryP >= paper.RecoveryP {
		t.Errorf("min-cut greed (%.1f%%) should underperform the paper's rule (%.1f%%)",
			mc.RecoveryP, paper.RecoveryP)
	}
}

// TestMultilevelShapeHolds is the smoke test of the flat-vs-multilevel
// comparison: the table renders, the multilevel runs actually coarsen,
// and the pipeline does not collapse quality on the planted blocks.
func TestMultilevelShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	rec, err := Multilevel(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	results := rec.Results
	if len(results) != len(MultilevelCases) {
		t.Fatalf("got %d results for %d cases", len(results), len(MultilevelCases))
	}
	for _, r := range results {
		if r.LevelsUsed < 2 {
			t.Errorf("%s: multilevel run used %d levels; coarsening never engaged", r.Name, r.LevelsUsed)
		}
		if r.MultiRecovery < 85 {
			t.Errorf("%s: multilevel recovery %.1f%%; want >= 85%% at smoke scale", r.Name, r.MultiRecovery)
		}
		if r.FlatMS <= 0 || r.MultiMS <= 0 {
			t.Errorf("%s: non-positive timings: flat %.1fms ml %.1fms", r.Name, r.FlatMS, r.MultiMS)
		}
	}
	if !strings.Contains(buf.String(), "Flat vs multilevel") {
		t.Error("table title missing from rendered output")
	}

	// The JSON record round-trips.
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_multilevel.json")
	if err := WriteRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back MultilevelRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record not valid JSON: %v", err)
	}
	if len(back.Results) != len(results) || back.Scale != tiny.Scale {
		t.Errorf("record mismatch: %+v", back)
	}
}

func TestIncrementalShapeHolds(t *testing.T) {
	tiny := Config{Scale: 0.08, Seeds: 24, Seed: 1}
	var buf bytes.Buffer
	rec, err := Incremental(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	results := rec.Results
	if len(results) != len(IncrementalCases) {
		t.Fatalf("%d results for %d cases", len(results), len(IncrementalCases))
	}
	for _, r := range results {
		if !r.Match {
			t.Errorf("%s: incremental diverged from full re-detection", r.Name)
		}
		if r.ReusedSeeds+r.RerunSeeds != r.Seeds {
			t.Errorf("%s: seed accounting %d+%d != %d", r.Name, r.ReusedSeeds, r.RerunSeeds, r.Seeds)
		}
		if r.DirtyCells == 0 || r.FullMS <= 0 || r.IncrMS <= 0 {
			t.Errorf("%s: degenerate row: %+v", r.Name, r)
		}
	}
	if !strings.Contains(buf.String(), "Incremental vs full") {
		t.Error("table title missing from rendered output")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_incremental.json")
	if err := WriteRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back IncrementalRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record not valid JSON: %v", err)
	}
	if len(back.Results) != len(results) || back.Scale != tiny.Scale {
		t.Errorf("record mismatch: %+v", back)
	}
}

func TestLintShapeHolds(t *testing.T) {
	tiny := Config{Scale: 0.02, Seeds: 8, Seed: 1}
	var buf bytes.Buffer
	results, err := Lint(context.Background(), tiny, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("want 3 workload rows, got %d", len(results))
	}
	byName := map[string]*LintResult{}
	for _, r := range results {
		byName[r.Name] = r
		if r.Cells == 0 || r.Nets == 0 {
			t.Errorf("%s: degenerate workload: %+v", r.Name, r)
		}
	}
	mill := byName["ring_mill"]
	if mill == nil || !mill.Directed {
		t.Fatal("ring_mill row missing or undirected")
	}
	// The planted rings must be found; the flip-flop-broken outer
	// cycle must not be (it would show as one giant extra finding).
	if mill.Errors != tiny.scaled(1024) {
		t.Errorf("ring_mill: %d comb-loop errors, want %d planted rings",
			mill.Errors, tiny.scaled(1024))
	}
	host := byName["hier_host"]
	if host == nil || host.Directed {
		t.Fatal("hier_host row missing or unexpectedly directed")
	}
	// Undirected workloads must skip direction-dependent rules, not
	// fail or fabricate findings from them.
	if host.Skipped == 0 {
		t.Error("hier_host: no direction-dependent rules recorded as skipped")
	}
	if host.Errors != 0 {
		t.Errorf("hier_host: %d errors on a clean Rent-rule circuit", host.Errors)
	}
	if !strings.Contains(buf.String(), "Structural lint") {
		t.Error("table title missing from rendered output")
	}
}
