// Package metrics implements the paper's tangled-logic scores —
// GTL-Score, normalized GTL-Score and density-aware GTL-Score — the
// per-group Rent exponent estimate, and two of the baselines the paper
// argues against: ratio cut (plotted beside the GTL scores in its
// Figure 5) and Ng's Rent metric.
//
// Conventions: T = net cut T(C); size = |C|; pins = Σ_{c∈C} deg(c) so
// A_C = pins/size; aG = A(G) the netlist-wide average pins per cell;
// p = Rent exponent. A score of ~1 marks an average-quality group and
// scores « 1 (e.g. < 0.1) mark strong GTLs.
package metrics

import "math"

// GTLScore returns GTL-S(C) = T / |C|^p. Groups smaller than 2 cells
// return +Inf (the paper ignores tiny clusters).
func GTLScore(cut, size int, p float64) float64 {
	if size < 2 {
		return math.Inf(1)
	}
	return float64(cut) / math.Pow(float64(size), p)
}

// NGTLScore returns nGTL-S(C) = T / (A_G · |C|^p), the normalized score
// whose expected value over average-quality groups is 1.
func NGTLScore(cut, size int, p, aG float64) float64 {
	if size < 2 || aG <= 0 {
		return math.Inf(1)
	}
	return float64(cut) / (aG * math.Pow(float64(size), p))
}

// GTLSD returns the density-aware score
// GTL-SD(C) = T / (A_G · |C|^(p·A_C/A_G)) with A_C = pins/size.
// Pin-dense groups (complex NAND4/AOI-style gates) get a larger
// exponent, biasing the score downward exactly as the paper intends.
func GTLSD(cut, size, pins int, p, aG float64) float64 {
	if size < 2 || aG <= 0 || pins <= 0 {
		return math.Inf(1)
	}
	aC := float64(pins) / float64(size)
	return float64(cut) / (aG * math.Pow(float64(size), p*aC/aG))
}

// RentExponent estimates the Rent exponent of one group via the
// paper's Phase II formula p = (ln T − ln A_C)/ln |C|. ok is false when
// the estimate is undefined (size < 2, zero cut or zero pins).
func RentExponent(cut, size, pins int) (p float64, ok bool) {
	if size < 2 || cut <= 0 || pins <= 0 {
		return 0, false
	}
	aC := float64(pins) / float64(size)
	return (math.Log(float64(cut)) - math.Log(aC)) / math.Log(float64(size)), true
}

// RatioCut returns the Chan–Schlag–Zien ratio cut T/|C|. The paper uses
// it as the main baseline in Figure 5: it monotonically favors large
// groups, which is exactly the deficiency the GTL scores fix.
func RatioCut(cut, size int) float64 {
	if size < 1 {
		return math.Inf(1)
	}
	return float64(cut) / float64(size)
}

// RentMetric returns Ng's cluster-quality measure ln T / ln |C| — the
// metric the paper cites as "better than ratio cut but still
// monotonically decreasing with size".
func RentMetric(cut, size int) float64 {
	if size < 2 || cut < 1 {
		return math.Inf(1)
	}
	return math.Log(float64(cut)) / math.Log(float64(size))
}
