package core

import (
	"math"
	"testing"

	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
)

// syntheticOrdering fabricates an OrderingStats whose prefix cuts are
// supplied directly, over a netlist of four nets that each pin every
// cell: every cell has degree 4, so the first k cells hold 4k pins.
func syntheticOrdering(cuts []int32) (*netlist.Netlist, *OrderingStats) {
	var b netlist.Builder
	b.AddCells(len(cuts))
	o := &OrderingStats{Members: make([]netlist.CellID, len(cuts)), Cuts: cuts}
	for i := range cuts {
		o.Members[i] = netlist.CellID(i)
	}
	for range 4 {
		b.AddNet("", o.Members...)
	}
	return b.MustBuild(), o
}

// rentCuts builds a cut curve T(k) = aC·k^p with a dip to dipCut at
// index dipAt (0-based prefix size dipAt+1).
func rentCuts(n int, p float64, dipAt int, dipCut int32) []int32 {
	cuts := make([]int32, n)
	for k := 1; k <= n; k++ {
		cuts[k-1] = int32(math.Round(4 * math.Pow(float64(k), p)))
	}
	if dipAt >= 0 {
		cuts[dipAt] = dipCut
	}
	return cuts
}

func TestAverageRentRecoversExponent(t *testing.T) {
	nl, o := syntheticOrdering(rentCuts(500, 0.65, -1, 0))
	got := averageRent(nl, o)
	if math.Abs(got-0.65) > 0.05 {
		t.Errorf("averageRent = %v, want ≈ 0.65", got)
	}
}

func TestScoreCurveFlatForAverageGroups(t *testing.T) {
	// A curve that follows Rent's rule exactly should score ≈ 1
	// everywhere under nGTL-S (past the noisy small prefixes).
	nl, o := syntheticOrdering(rentCuts(500, 0.65, -1, 0))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	for k := 50; k <= 500; k += 50 {
		if v := c.Scores[k-1]; v < 0.7 || v > 1.4 {
			t.Errorf("score at %d = %v, want ≈ 1", k, v)
		}
	}
}

func TestExtractFindsClearDip(t *testing.T) {
	nl, o := syntheticOrdering(rentCuts(500, 0.65, 299, 3))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	opt := DefaultOptions()
	ex := extract(c, &opt)
	if !ex.ok {
		t.Fatal("clear dip not extracted")
	}
	if ex.size != 300 {
		t.Errorf("dip at %d, want 300", ex.size)
	}
	if ex.score > 0.1 {
		t.Errorf("dip score = %v, want tiny", ex.score)
	}
}

func TestExtractRejectsFlatCurve(t *testing.T) {
	nl, o := syntheticOrdering(rentCuts(500, 0.65, -1, 0))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	opt := DefaultOptions()
	if ex := extract(c, &opt); ex.ok {
		t.Errorf("flat curve extracted at %d (score %v)", ex.size, ex.score)
	}
}

func TestExtractRejectsRightEdgeMinimum(t *testing.T) {
	// Monotone decreasing score curve: minimum at the window edge
	// means "still descending" — no evidence the structure ended.
	cuts := make([]int32, 300)
	for k := 1; k <= 300; k++ {
		cuts[k-1] = 10 // constant cut: score decreases as k^-p
	}
	nl, o := syntheticOrdering(cuts)
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	opt := DefaultOptions()
	if ex := extract(c, &opt); ex.ok {
		t.Errorf("right-edge minimum extracted at %d", ex.size)
	}
}

func TestExtractRespectsMinGroupSize(t *testing.T) {
	// Dip at size 10, below MinGroupSize 24: must be ignored.
	nl, o := syntheticOrdering(rentCuts(200, 0.65, 9, 1))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	opt := DefaultOptions()
	if ex := extract(c, &opt); ex.ok && ex.size == 10 {
		t.Error("tiny dip below MinGroupSize extracted")
	}
}

func TestExtractRespectsThreshold(t *testing.T) {
	// A mild dip (score ~0.9 · ambient) must not pass a strict
	// threshold.
	nl, o := syntheticOrdering(rentCuts(500, 0.65, 299, 40))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	opt := DefaultOptions()
	opt.AcceptThreshold = 0.2
	if ex := extract(c, &opt); ex.ok {
		t.Errorf("mild dip (score %v) passed threshold 0.2", ex.score)
	}
}

func TestExtractEmptyAndShortCurves(t *testing.T) {
	opt := DefaultOptions()
	if ex := extract(&Curve{}, &opt); ex.ok {
		t.Error("empty curve extracted")
	}
	nl, o := syntheticOrdering(rentCuts(10, 0.65, -1, 0)) // shorter than MinGroupSize
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	if ex := extract(c, &opt); ex.ok {
		t.Error("curve shorter than MinGroupSize extracted")
	}
}

func TestScoreCurveMetricsAgreeAtUniformDensity(t *testing.T) {
	// With A_C == A_G everywhere, GTL-SD degenerates to nGTL-S.
	nl, o := syntheticOrdering(rentCuts(300, 0.6, 149, 5))
	cN := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	cD := ScoreCurve(nl, o, MetricGTLSD, 4.0)
	for k := 30; k <= 300; k += 30 {
		if math.Abs(cN.Scores[k-1]-cD.Scores[k-1]) > 1e-9 {
			t.Fatalf("metrics disagree at %d: %v vs %v", k, cN.Scores[k-1], cD.Scores[k-1])
		}
	}
}

func TestRentExponentConsistency(t *testing.T) {
	// The curve's Rent value is what the scores are computed with.
	nl, o := syntheticOrdering(rentCuts(400, 0.7, -1, 0))
	c := ScoreCurve(nl, o, MetricNGTLS, 4.0)
	k := 200
	want := metrics.NGTLScore(int(o.Cuts[k-1]), k, c.Rent, 4.0)
	if got := c.Scores[k-1]; math.Abs(got-want) > 1e-12 {
		t.Errorf("score[%d] = %v, want %v", k, got, want)
	}
}
