package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScoresKnownValues(t *testing.T) {
	// T=100, |C|=100, p=1: GTL-S = 100/100 = 1.
	if got := GTLScore(100, 100, 1.0); got != 1.0 {
		t.Errorf("GTLScore = %v, want 1", got)
	}
	// nGTL-S divides by A_G.
	if got := NGTLScore(100, 100, 1.0, 4.0); got != 0.25 {
		t.Errorf("NGTLScore = %v, want 0.25", got)
	}
	// GTL-SD with A_C == A_G reduces to nGTL-S.
	nominal := NGTLScore(50, 64, 0.6, 4.0)
	dens := GTLSD(50, 64, 64*4, 0.6, 4.0)
	if math.Abs(nominal-dens) > 1e-12 {
		t.Errorf("GTL-SD(A_C=A_G) = %v, want %v", dens, nominal)
	}
	// Denser groups (A_C > A_G) must score lower (stronger GTL).
	denser := GTLSD(50, 64, 64*6, 0.6, 4.0)
	if denser >= dens {
		t.Errorf("denser group scored %v >= %v", denser, dens)
	}
}

func TestScoreEdgeCases(t *testing.T) {
	if !math.IsInf(GTLScore(1, 1, 0.5), 1) {
		t.Error("size-1 group should be +Inf")
	}
	if !math.IsInf(NGTLScore(1, 10, 0.5, 0), 1) {
		t.Error("zero A_G should be +Inf")
	}
	if !math.IsInf(GTLSD(1, 10, 0, 0.5, 4), 1) {
		t.Error("zero pins should be +Inf")
	}
	if GTLScore(0, 100, 0.5) != 0 {
		t.Error("zero cut should score 0 (perfect isolation)")
	}
	if _, ok := RentExponent(0, 10, 40); ok {
		t.Error("zero cut Rent estimate should be undefined")
	}
	if !math.IsInf(RatioCut(5, 0), 1) || !math.IsInf(RentMetric(0, 10), 1) {
		t.Error("degenerate baselines should be +Inf")
	}
}

// TestRentExponentInvertsRentsRule: if T = A_C·|C|^p exactly, the
// estimator returns p.
func TestRentExponentInvertsRentsRule(t *testing.T) {
	f := func(pRaw, sizeRaw uint8) bool {
		p := 0.3 + 0.6*float64(pRaw)/255 // p in [0.3, 0.9]
		size := 4 + int(sizeRaw)
		aC := 4.0
		cut := int(math.Round(aC * math.Pow(float64(size), p)))
		if cut < 1 {
			return true
		}
		got, ok := RentExponent(cut, size, int(aC)*size)
		if !ok {
			return false
		}
		// Rounding T to an integer perturbs the estimate slightly.
		return math.Abs(got-p) < 0.15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestNGTLSSizeFairness is the paper's central claim: two groups of
// different sizes with the same Rent-relative connectivity score the
// same under nGTL-S, while ratio cut favors the large one.
func TestNGTLSSizeFairness(t *testing.T) {
	p, aG := 0.65, 4.0
	small := int(aG * math.Pow(100, p)) // T for an "average" 100-cell group
	large := int(aG * math.Pow(10000, p))
	sSmall := NGTLScore(small, 100, p, aG)
	sLarge := NGTLScore(large, 10000, p, aG)
	if math.Abs(sSmall-sLarge) > 0.05 {
		t.Errorf("nGTL-S not size-fair: %v vs %v", sSmall, sLarge)
	}
	rcSmall := RatioCut(small, 100)
	rcLarge := RatioCut(large, 10000)
	if rcLarge >= rcSmall {
		t.Errorf("ratio cut should favor the large group: %v vs %v", rcSmall, rcLarge)
	}
}
