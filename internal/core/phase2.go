package core

import (
	"math"

	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
)

// Curve is the Phase II score function Φ(C_k) over prefixes of one
// linear ordering, together with the Rent exponent used to compute it.
// Scores[k-1] is the score of the first-k-cells prefix; prefixes
// smaller than 2 cells hold +Inf.
type Curve struct {
	Scores []float64
	Rent   float64 // averaged Rent exponent p for this ordering
	AG     float64 // netlist-wide average pins per cell
}

// averageRent implements the paper's estimator: the Rent exponent of
// the ordering is the mean of per-prefix estimates
// (ln T(C_k) − ln A_{C_k}) / ln k over all prefixes where it is defined.
// nl is the netlist the ordering was grown on; a prefix's pin total is
// the running sum of its members' degrees there.
func averageRent(nl *netlist.Netlist, o *OrderingStats) float64 {
	sum, n := 0.0, 0
	pins := 0
	for k := 1; k <= o.Len(); k++ {
		pins += nl.CellDegree(o.Members[k-1])
		if p, ok := metrics.RentExponent(int(o.Cuts[k-1]), k, pins); ok {
			sum += p
			n++
		}
	}
	if n == 0 {
		return 0.5 // degenerate ordering; any p gives score 0 everywhere
	}
	return sum / float64(n)
}

// ScoreCurve evaluates metric m over every prefix of an ordering grown
// on nl (GrowOrdering's), which supplies the prefixes' pin totals. aG
// is the netlist's average pin count A(G).
func ScoreCurve(nl *netlist.Netlist, o *OrderingStats, m Metric, aG float64) *Curve {
	c := &Curve{}
	scoreCurveWithRent(c, nl, o, averageRent(nl, o), m, aG)
	return c
}

// scoreCurveWithRent fills c (reusing its Scores capacity) with metric
// m over every prefix of an ordering grown on nl under Rent exponent
// p. The exponent is structural, so the seed pipeline computes it once
// per growth and a replay re-scores a recorded ordering under a new
// A(G) with its stored exponent, through this same loop. The recorded
// members lie in a clean footprint, so their degrees in the patched
// netlist are the ones they were grown with.
func scoreCurveWithRent(c *Curve, nl *netlist.Netlist, o *OrderingStats, p float64, m Metric, aG float64) {
	if cap(c.Scores) < o.Len() {
		c.Scores = make([]float64, o.Len())
	}
	c.Scores = c.Scores[:o.Len()]
	c.Rent = p
	c.AG = aG
	pins := 0
	for k := 1; k <= o.Len(); k++ {
		cut := int(o.Cuts[k-1])
		switch m {
		case MetricNGTLS:
			c.Scores[k-1] = metrics.NGTLScore(cut, k, p, aG)
		case MetricGTLSD:
			pins += nl.CellDegree(o.Members[k-1])
			c.Scores[k-1] = metrics.GTLSD(cut, k, pins, p, aG)
		}
	}
}

// extraction is the outcome of Phase II for one ordering.
type extraction struct {
	size  int     // |B|: prefix length at the accepted minimum
	score float64 // Φ at the minimum
	rent  float64
	ok    bool
}

// extract finds a clear interior minimum of the score curve within
// [opt.MinGroupSize, len]. Acceptance demands (i) the minimum beats
// AcceptThreshold, and (ii) the curve value at both window ends exceeds
// the minimum by at least 1/DipRatio — rejecting the flat or monotone
// curves produced by seeds outside any GTL (paper Figures 2 and 3).
func extract(c *Curve, opt *Options) extraction {
	n := len(c.Scores)
	lo := opt.MinGroupSize
	if lo < 2 {
		lo = 2
	}
	if lo > n {
		return extraction{}
	}
	bestK, bestV := -1, math.Inf(1)
	for k := lo; k <= n; k++ {
		if v := c.Scores[k-1]; v < bestV {
			bestV, bestK = v, k
		}
	}
	if bestK < 0 || math.IsInf(bestV, 1) || bestV > opt.AcceptThreshold {
		return extraction{}
	}
	// A minimum sitting at the window's right edge means the curve was
	// still descending — there is no evidence the structure ended.
	if bestK >= n {
		return extraction{}
	}
	leftRef := c.Scores[lo-1]
	rightRef := c.Scores[n-1]
	if bestV > opt.DipRatio*leftRef || bestV > opt.DipRatio*rightRef {
		return extraction{}
	}
	return extraction{size: bestK, score: bestV, rent: c.Rent, ok: true}
}
