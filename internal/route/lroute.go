package route

import (
	"fmt"
	"math"

	"tanglefind/internal/netlist"
	"tanglefind/internal/place"
)

// This file implements a second congestion model: probabilistic
// L-shaped (two-bend) global routing, the classic Westra-style
// estimator. Each net is decomposed into two-pin segments by a
// Manhattan minimum spanning tree; each segment is routed as the lower
// and upper L with probability ½ each, accumulating horizontal and
// vertical track demand per tile. Compared to RUDY it models track
// direction and bend locations, so it is closer to what the paper's
// commercial router measured. The inflation experiment itself measures
// with RUDY (Estimate); TestInflationHoldsUnderLRoute checks that its
// result holds under this model too.

// EstimateLRoute builds an L-routing congestion map on a gridW×gridH
// tile grid. The returned Map's Demand is the per-tile maximum of
// horizontal and vertical track usage (wires crossing the tile);
// Capacity is left at zero, as with Estimate.
func EstimateLRoute(nl *netlist.Netlist, pl *place.Placement, gridW, gridH int) (*Map, error) {
	if gridW < 1 || gridH < 1 {
		return nil, fmt.Errorf("route: invalid grid %dx%d", gridW, gridH)
	}
	hDem := make([]float64, gridW*gridH)
	vDem := make([]float64, gridW*gridH)
	binW := pl.Die.W() / float64(gridW)
	binH := pl.Die.H() / float64(gridH)
	tileX := func(x float64) int {
		t := int((x - pl.Die.X0) / binW)
		if t < 0 {
			t = 0
		}
		if t >= gridW {
			t = gridW - 1
		}
		return t
	}
	tileY := func(y float64) int {
		t := int((y - pl.Die.Y0) / binH)
		if t < 0 {
			t = 0
		}
		if t >= gridH {
			t = gridH - 1
		}
		return t
	}
	addH := func(y, x0, x1 int, w float64) {
		if x1 < x0 {
			x0, x1 = x1, x0
		}
		for x := x0; x <= x1; x++ {
			hDem[y*gridW+x] += w
		}
	}
	addV := func(x, y0, y1 int, w float64) {
		if y1 < y0 {
			y0, y1 = y1, y0
		}
		for y := y0; y <= y1; y++ {
			vDem[y*gridW+x] += w
		}
	}
	for n := 0; n < nl.NumNets(); n++ {
		pins := nl.NetPins(netlist.NetID(n))
		if len(pins) < 2 {
			continue
		}
		for _, seg := range mstSegments(nl, pl, pins) {
			ax, ay := tileX(pl.X[seg[0]]), tileY(pl.Y[seg[0]])
			bx, by := tileX(pl.X[seg[1]]), tileY(pl.Y[seg[1]])
			switch {
			case ay == by:
				addH(ay, ax, bx, 1)
			case ax == bx:
				addV(ax, ay, by, 1)
			default:
				// Lower L: horizontal at ay then vertical at bx.
				addH(ay, ax, bx, 0.5)
				addV(bx, ay, by, 0.5)
				// Upper L: vertical at ax then horizontal at by.
				addV(ax, ay, by, 0.5)
				addH(by, ax, bx, 0.5)
			}
		}
	}
	m := &Map{W: gridW, H: gridH, Die: pl.Die, Demand: make([]float64, gridW*gridH)}
	for i := range m.Demand {
		m.Demand[i] = math.Max(hDem[i], vDem[i])
	}
	return m, nil
}

// mstSegments decomposes a net's pins into two-pin segments along a
// Manhattan-distance minimum spanning tree (Prim's algorithm). Cells
// appearing at identical locations still get zero-length segments so
// connectivity is preserved.
func mstSegments(nl *netlist.Netlist, pl *place.Placement, pins []netlist.CellID) [][2]netlist.CellID {
	k := len(pins)
	if k == 2 {
		return [][2]netlist.CellID{{pins[0], pins[1]}}
	}
	inTree := make([]bool, k)
	dist := make([]float64, k)
	parent := make([]int, k)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[0] = 0
	segs := make([][2]netlist.CellID, 0, k-1)
	for iter := 0; iter < k; iter++ {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if !inTree[i] && dist[i] < bestD {
				best, bestD = i, dist[i]
			}
		}
		if best < 0 {
			break
		}
		inTree[best] = true
		if parent[best] >= 0 {
			segs = append(segs, [2]netlist.CellID{pins[parent[best]], pins[best]})
		}
		bx, by := pl.X[pins[best]], pl.Y[pins[best]]
		for i := 0; i < k; i++ {
			if inTree[i] {
				continue
			}
			d := math.Abs(pl.X[pins[i]]-bx) + math.Abs(pl.Y[pins[i]]-by)
			if d < dist[i] {
				dist[i] = d
				parent[i] = best
			}
		}
	}
	return segs
}

// MSTWirelength returns the total Manhattan MST wirelength of the
// placement — a tighter routed-length estimate than HPWL for multi-pin
// nets.
func MSTWirelength(nl *netlist.Netlist, pl *place.Placement) float64 {
	total := 0.0
	for n := 0; n < nl.NumNets(); n++ {
		pins := nl.NetPins(netlist.NetID(n))
		if len(pins) < 2 {
			continue
		}
		for _, seg := range mstSegments(nl, pl, pins) {
			total += math.Abs(pl.X[seg[0]]-pl.X[seg[1]]) + math.Abs(pl.Y[seg[0]]-pl.Y[seg[1]])
		}
	}
	return total
}
