package core

import (
	"tanglefind/internal/ds"
	"tanglefind/internal/group"
	"tanglefind/internal/netlist"
)

// OrderingStats is the outcome of Phase I for one seed: the ordering
// itself plus the per-prefix cuts Phase II scores. Cuts[k-1] is the
// cut of the prefix of the first k cells. A prefix's pin total is not
// stored: it is Σ CellDegree over the prefix's members in the netlist
// the ordering was grown on, which Phase II sums as it goes. An
// ordering thus holds 8 bytes per prefix.
type OrderingStats struct {
	Members []netlist.CellID
	Cuts    []int32
}

// Len returns the ordering length.
func (o *OrderingStats) Len() int { return len(o.Members) }

// Prefix returns the first k members (aliasing the ordering).
func (o *OrderingStats) Prefix(k int) []netlist.CellID { return o.Members[:k] }

// clone returns a copy that owns its arrays, sized exactly so that a
// recorded growth costs 8 bytes per prefix (IncrementalStatesMemory).
func (o *OrderingStats) clone() OrderingStats {
	return OrderingStats{
		Members: append(make([]netlist.CellID, 0, len(o.Members)), o.Members...),
		Cuts:    append(make([]int32, 0, len(o.Cuts)), o.Cuts...),
	}
}

// grower owns the reusable state for running Phase I repeatedly over
// one netlist. It is not safe for concurrent use; the engine pools
// growers and hands each worker its own. The options pointer is set by
// the engine when a worker borrows the grower for a run (options can
// change between runs of the same engine; the sized arrays and buffers
// below depend only on the netlist and survive every run).
//
// The inner addCell loop is the finder's hottest path. Per absorbed
// cell it walks CellPins(v) once (fused with the tracker's cut
// bookkeeping) and then, per incident net below the K-factor skip,
// that net's pin run, skipping members. The reference grower in
// reference_test.go is the pre-overhaul loop this one must stay
// bit-identical to.
type grower struct {
	nl      *netlist.Netlist
	tracker *group.Tracker
	heap    ds.GainHeap
	// front is the dense per-cell frontier state: one epoch-stamped
	// 16-byte entry holding the cell's gain, tiebreak and discovery
	// stamp. A cell is live in the current growth iff the epoch bits of
	// its stamp equal the grower's — so per-seed reset is one counter
	// bump instead of a walk, and the hot loop touches one cache line
	// per cell where the former gain/tie/inFront parallel arrays
	// touched three. The stamp's high bits carry per-growth flags
	// (pending coalesced push, examined); see epochMask.
	front []frontEntry
	epoch uint32
	// pend lists the frontier cells whose gain the current addCell has
	// bumped but not yet pushed: all of one absorb's bumps to a cell
	// coalesce into a single heap push (see the flush at the end of
	// addCell for why that is output-invariant).
	pend []netlist.CellID
	// touched is the discovery list of the current growth (frontier
	// and absorbed cells, in first-touch order — BFS ties index it);
	// incremental footprints under OrderMinCut consume it.
	touched []netlist.CellID
	// examined records the cells whose own pin runs popBest read (the
	// DeltaCut re-verification) during the current growth. Together
	// with the ordering members it is the growth's exact read set
	// under OrderWeighted — unexamined frontier cells contribute only
	// gains, which are functions of member-incident nets — and that
	// read set is what incremental detection stores as the seed's
	// footprint. Deduplicated at append time via the examined stamp
	// bit: each cell appears at most once per growth.
	examined []netlist.CellID
	opt      *Options

	// phases accumulates the per-seed pipeline phase wall time (ns)
	// this worker executed. Harvested and zeroed by runSeedPool when
	// the worker drains.
	phases phaseAcc

	ord   OrderingStats // reusable Phase I output (aliased by grow's return)
	curve Curve         // reusable Phase II score buffer (see seedPipe.score)
	combo comboScratch  // reusable Phase III recombination arena
}

// frontEntry is one cell's frontier state, valid while the epoch bits
// of stamp match the grower's current epoch.
type frontEntry struct {
	gain  float64 // current connection weight
	tie   int32   // discovery index (BFS) or last verified cut-delta
	stamp uint32  // epoch bits plus per-growth flag bits
}

// Stamp layout: the low 23 bits are the growth epoch; above them sit
// two per-growth flag bits, implicitly cleared whenever the epoch bits
// go stale (liveness always compares stamp&epochMask).
const (
	epochMask   = 1<<23 - 1 // growth epoch
	pendingBit  = 1 << 23   // gain bumped this addCell, push pending
	examinedBit = 1 << 24   // already on the examined list this growth
)

// invTab caches 1/k for small k: the weighted gain formula otherwise
// spends one float divide per term per walked net, and λ is bounded by
// the K-factor skip in every realistic configuration. Entries are
// exactly the IEEE values 1.0/float64(k) produces, so using the table
// is bit-invisible.
var invTab = func() (t [256]float64) {
	for i := 1; i < len(t); i++ {
		t[i] = 1.0 / float64(i)
	}
	return
}()

func inv(k int) float64 {
	if k < len(invTab) {
		return invTab[k]
	}
	return 1.0 / float64(k)
}

func newGrower(nl *netlist.Netlist) *grower {
	return &grower{
		nl:      nl,
		tracker: group.NewTracker(nl),
		front:   make([]frontEntry, nl.NumCells()),
	}
}

// rebind points the grower at a different netlist: the tracker is
// re-initialized for nl and the per-cell frontier array is resliced to
// nl's size (reallocated only when its storage is too small). Entries
// left over from earlier netlists need no clearing: their stamps hold
// past epochs, and the next growth bumps the epoch before reading any
// of them.
func (g *grower) rebind(nl *netlist.Netlist) {
	g.nl = nl
	g.tracker.Rebind(nl)
	g.front = resized(g.front, nl.NumCells())
}

// attach swaps the grower's netlist references without touching its
// arrays: nil detaches an idle grower so it keeps no netlist
// reachable, and re-attaching the netlist of the last rebind resumes
// it.
func (g *grower) attach(nl *netlist.Netlist) {
	g.nl = nl
	g.tracker.Attach(nl)
}

// resized returns s with length n, reusing its storage when it is
// large enough.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (g *grower) reset() {
	g.tracker.Reset()
	g.heap.Reset()
	g.bumpEpoch()
	g.touched = g.touched[:0]
	g.examined = g.examined[:0]
	g.pend = g.pend[:0]
}

// bumpEpoch invalidates every frontier entry in O(1). On the (once per
// 2^23 growths) wraparound the array is cleared to its full capacity —
// a later rebind may reslice past the current length — so stale stamps
// from eight million growths ago cannot alias the fresh epoch.
func (g *grower) bumpEpoch() {
	g.epoch++
	if g.epoch > epochMask {
		clear(g.front[:cap(g.front)])
		g.epoch = 1
	}
}

// grow runs Phase I from seed, producing an ordering of at most maxLen
// cells (shorter if the seed's reachable region is exhausted). The
// returned stats alias the grower's reusable buffer and stay valid only
// until the next grow call; callers that keep prefixes copy them
// through group.Evaluator.Eval.
func (g *grower) grow(seed netlist.CellID, maxLen int) *OrderingStats {
	g.reset()
	if maxLen > g.nl.NumCells() {
		maxLen = g.nl.NumCells()
	}
	out := &g.ord
	out.Members = out.Members[:0]
	out.Cuts = out.Cuts[:0]
	record := func() {
		out.Members = append(out.Members, g.tracker.Members()[g.tracker.Size()-1])
		out.Cuts = append(out.Cuts, int32(g.tracker.Cut()))
	}
	g.addCell(seed)
	record()
	for g.tracker.Size() < maxLen {
		v, ok := g.popBest()
		if !ok {
			break
		}
		g.addCell(v)
		record()
	}
	return out
}

// popBest pops the best frontier cell under the configured ordering
// rule, discarding stale entries and re-verifying cut deltas lazily.
func (g *grower) popBest() (netlist.CellID, bool) {
	for {
		v, gain, tie, ok := g.heap.Pop()
		if !ok {
			return 0, false
		}
		fe := &g.front[v]
		if g.tracker.Has(int(v)) || fe.stamp&epochMask != g.epoch {
			continue // already absorbed
		}
		if gain != fe.gain {
			continue // stale gain; a fresher entry exists
		}
		if g.opt.Ordering == OrderBFS {
			return v, true // tie is the discovery index, always valid
		}
		if fe.stamp&examinedBit == 0 {
			fe.stamp |= examinedBit
			g.examined = append(g.examined, v)
		}
		// The cut-delta tiebreak only decides between entries with
		// EQUAL gain. When v's gain is strictly ahead of the new top,
		// v wins whatever its tie is — the reference would at worst
		// requeue v at the fresh tie and immediately pop it again
		// (nothing can overtake a strict maximum), returning the same
		// cell with the same heap state. Skipping the verification is
		// therefore bit-identical, and it eliminates a DeltaCut walk
		// from every uncontested pop.
		if tg, any := g.heap.TopGain(); !any || tg != gain {
			return v, true
		}
		fresh := int32(g.tracker.DeltaCut(v))
		if fresh != tie {
			fe.tie = fresh
			// The cut delta drifted since this entry was pushed. The
			// reference requeues at the exact value and keeps popping —
			// but when the corrected entry still beats everything
			// queued, that requeue is popped straight back (and pays a
			// second, identical DeltaCut walk to verify the value just
			// computed). Returning directly leaves the same queue
			// multiset and the same winner: bit-identical, one
			// push/pop/verify round-trip cheaper. Cut deltas mostly
			// drift downward as the group grows, so this is the common
			// case in an equal-gain contest.
			if g.heap.StillBest(int32(v), gain, fresh) {
				return v, true
			}
			g.heap.Push(int32(v), gain, fresh)
			continue
		}
		return v, true
	}
}

// addCell absorbs v into the group and refreshes frontier weights.
//
// Output invariance of push coalescing, relied on by the differential
// test against the reference grower: the reference pushes after every
// per-net gain bump; this loop pushes once per touched cell per
// absorb, at the cell's final accumulated gain. Weighted deltas are
// strictly positive, so every intermediate value the reference pushes
// is strictly below the cell's final gain of that absorb and can never
// match fe.gain again (gains only grow) — popBest discards such
// entries with zero side effects before they influence anything. The
// heap's (gain desc, tie asc, key asc) order is a total order, so
// dropping entries that could never win and reordering the survivors'
// pushes leaves the pop sequence bit-identical.
func (g *grower) addCell(v netlist.CellID) {
	t := g.tracker
	front := g.front // hoisted: the inner loops index it per pin
	epoch := g.epoch
	if front[v].stamp&epochMask != epoch {
		front[v].stamp = epoch
		g.touched = append(g.touched, v) // first touch: enters the discovery list
	}
	t.Add(v)
	nets := g.nl.CellPins(v)
	info := t.AbsorbInfo() // per-net (λ, newly-connected), fused into Add's walk
	info = info[:len(nets)]
	weighted := g.opt.Ordering == OrderWeighted
	skip := g.opt.BigNetSkip
	for i, e := range nets {
		s := info[i]
		lambda := int(s >> group.AbsorbShift) // pins still outside
		if lambda == 0 {
			continue // fully internal: no frontier contribution left
		}
		if skip > 0 && lambda >= skip {
			// The paper's K-factor optimization: weight changes on
			// nets with many outside pins are negligible; skip them.
			continue
		}
		pins := g.nl.NetPins(e)
		if !weighted {
			for _, w := range pins {
				if t.Has(int(w)) {
					continue
				}
				fe := &front[w]
				if fe.stamp&epochMask != epoch {
					fe.stamp = epoch
					g.touched = append(g.touched, w)
					fe.gain = 0
					switch g.opt.Ordering {
					case OrderBFS:
						// Discovery order: earlier index wins. Encode as
						// constant gain with index tiebreak.
						fe.tie = int32(len(g.touched))
						g.heap.Push(w, 0, fe.tie)
					case OrderMinCut:
						fe.tie = int32(t.DeltaCut(w))
						g.heap.Push(w, 0, fe.tie)
					}
				}
				// OrderMinCut: gain stays 0; cut deltas are re-verified
				// at pop. OrderBFS: nothing beyond discovery.
			}
			continue
		}
		delta := inv(lambda + 1)
		fresh := s&group.AbsorbNewBit != 0 // net newly connected to the group
		if !fresh {
			delta -= inv(lambda + 2)
		}
		for _, w := range pins {
			// A freshly connected net has v as its only member, so its
			// member skip needs no bitset load.
			if w == v || !fresh && t.Has(int(w)) {
				continue
			}
			fe := &front[w]
			st := fe.stamp
			if st&epochMask != epoch {
				fe.stamp = epoch | pendingBit
				g.touched = append(g.touched, w)
				fe.gain = delta
				fe.tie = 0
				g.pend = append(g.pend, w)
				continue
			}
			fe.gain += delta
			if st&pendingBit == 0 {
				fe.stamp = st | pendingBit
				g.pend = append(g.pend, w)
			}
		}
	}
	// Flush the coalesced pushes: one per cell this absorb touched, at
	// its final accumulated gain.
	for _, w := range g.pend {
		fe := &front[w]
		fe.stamp &^= pendingBit
		g.heap.Push(w, fe.gain, fe.tie)
	}
	g.pend = g.pend[:0]
}
