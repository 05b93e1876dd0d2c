package group

import (
	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Set is an evaluated cell group: its members plus the cut and pin
// totals needed to score it. Members order is unspecified unless stated.
type Set struct {
	Members []netlist.CellID
	Cut     int // T(C)
	Pins    int // Σ_{c∈C} deg(c)
}

// Size returns |C|.
func (s Set) Size() int { return len(s.Members) }

// MergeUnion appends a ∪ b to dst and returns it. It allocates nothing
// beyond dst's growth, but requires both inputs sorted ascending and
// duplicate-free; the output is sorted too.
func MergeUnion(dst, a, b []netlist.CellID) []netlist.CellID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// MergeIntersect appends a ∩ b to dst (same sorted-unique contract as
// MergeUnion) and returns it.
func MergeIntersect(dst, a, b []netlist.CellID) []netlist.CellID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// MergeDifference appends a − b to dst (same sorted-unique contract
// as MergeUnion) and returns it.
func MergeDifference(dst, a, b []netlist.CellID) []netlist.CellID {
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return dst
}

// Evaluator computes Cut/Pins of arbitrary cell sets with reusable
// scratch space. Not safe for concurrent use.
type Evaluator struct {
	nl      *netlist.Netlist
	in      *ds.Bitset
	netSeen []int32 // stamp per net
	stamp   int32
}

// NewEvaluator returns an evaluator over nl.
func NewEvaluator(nl *netlist.Netlist) *Evaluator {
	e := &Evaluator{in: &ds.Bitset{}}
	e.Rebind(nl)
	return e
}

// Rebind points the evaluator at nl, resizing its per-cell and per-net
// scratch to nl and reusing the storage when it is large enough. Net
// stamps only ever grow, so entries left over from an earlier netlist
// are already stale and need no clearing.
func (e *Evaluator) Rebind(nl *netlist.Netlist) {
	e.nl = nl
	e.in.Resize(nl.NumCells())
	nets := nl.NumNets()
	if cap(e.netSeen) < nets {
		e.netSeen = make([]int32, nets)
	}
	e.netSeen = e.netSeen[:nets]
}

// Attach swaps the evaluator's netlist reference without touching its
// scratch: nil detaches an idle evaluator so it does not keep its
// netlist reachable, and re-attaching the netlist of the last Rebind
// resumes it. Any other netlist needs Rebind.
func (e *Evaluator) Attach(nl *netlist.Netlist) { e.nl = nl }

// MemoryFootprint returns the evaluator's retained bytes, for engine
// memory accounting.
func (e *Evaluator) MemoryFootprint() int64 {
	return e.in.Bytes() + int64(cap(e.netSeen))*4
}

// Eval computes the Set value (cut and pins) for the given members.
// Duplicate ids are tolerated and collapsed.
func (e *Evaluator) Eval(members []netlist.CellID) Set {
	e.stamp++
	uniq := members[:0:0]
	for _, c := range members {
		if e.in.Add(int(c)) {
			uniq = append(uniq, c)
		}
	}
	cut, pins := 0, 0
	for _, c := range uniq {
		nets := e.nl.CellPins(c)
		pins += len(nets)
		for _, n := range nets {
			if e.netSeen[n] == e.stamp {
				continue
			}
			e.netSeen[n] = e.stamp
			for _, other := range e.nl.NetPins(n) {
				if !e.in.Has(int(other)) {
					cut++
					break
				}
			}
		}
	}
	for _, c := range uniq {
		e.in.Remove(int(c))
	}
	return Set{Members: uniq, Cut: cut, Pins: pins}
}

// Tally computes the cut and pin totals of a duplicate-free member
// slice without copying or retaining it — the zero-allocation core of
// Eval, for callers that manage their own member storage (the Phase
// III recombination arena). Eval(members) == Set{members, Tally(members)}
// whenever members is duplicate-free.
func (e *Evaluator) Tally(members []netlist.CellID) (cut, pins int) {
	e.stamp++
	for _, c := range members {
		e.in.Add(int(c))
	}
	for _, c := range members {
		nets := e.nl.CellPins(c)
		pins += len(nets)
		for _, n := range nets {
			if e.netSeen[n] == e.stamp {
				continue
			}
			e.netSeen[n] = e.stamp
			for _, other := range e.nl.NetPins(n) {
				if !e.in.Has(int(other)) {
					cut++
					break
				}
			}
		}
	}
	for _, c := range members {
		e.in.Remove(int(c))
	}
	return cut, pins
}
