package core

import (
	"tanglefind/internal/ds"
	"tanglefind/internal/group"
	"tanglefind/internal/netlist"
)

// OrderingStats is the outcome of Phase I for one seed: the ordering
// itself plus the per-prefix cut and pin totals Phase II scores.
// Cuts[k-1] and Pins[k-1] describe the prefix of the first k cells.
type OrderingStats struct {
	Members []netlist.CellID
	Cuts    []int32
	Pins    []int64
}

// Len returns the ordering length.
func (o *OrderingStats) Len() int { return len(o.Members) }

// Prefix returns the first k members (aliasing the ordering).
func (o *OrderingStats) Prefix(k int) []netlist.CellID { return o.Members[:k] }

// grower owns the reusable state for running Phase I repeatedly over
// one netlist. It is not safe for concurrent use; the engine pools
// growers and hands each worker its own. The options pointer is set by
// the engine when a worker borrows the grower for a run (options can
// change between runs of the same engine; the sized arrays and buffers
// below depend only on the netlist and survive every run).
//
// The inner addCell loop is the finder's hottest path. Per absorbed
// cell it walks CellPins(v) once (fused with the tracker's cut
// bookkeeping) and then, per incident net, only that net's *live
// outside pins*: each net's outside-pin list is materialized into the
// shared arena on first touch and compacted order-preservingly as its
// pins are absorbed, so a pin run is scanned in full exactly once per
// growth and every later touch pays only for the pins still outside —
// amortized O(Σ|e|) list maintenance instead of the former
// O(Σ|e|·absorbs(e)) full re-walks. See addCellBaseline for the
// retained pre-overhaul loop (benchmark baseline and golden oracle).
type grower struct {
	nl      *netlist.Netlist
	tracker *group.Tracker
	heap    ds.GainHeap
	// bheap and btracker are the retained pre-overhaul frontier heap
	// and group tracker; only the baseline engine touches them, and the
	// tracker is allocated lazily on the first baseline growth (see
	// ordering_baseline.go).
	bheap    baselineHeap
	btracker *baselineTracker
	// front is the dense per-cell frontier state: one epoch-stamped
	// 16-byte entry holding the cell's gain, tiebreak and discovery
	// stamp. A cell is live in the current growth iff the epoch bits of
	// its stamp equal the grower's — so per-seed reset is one counter
	// bump instead of a walk, and the hot loop touches one cache line
	// per cell where the former gain/tie/inFront parallel arrays
	// touched three. The stamp's high bits carry per-growth flags
	// (pending coalesced push, examined) and the cell's heap-buffer
	// slot hint; see epochMask.
	front []frontEntry
	epoch uint32
	// outs is the per-net live outside-pin descriptor: a window into
	// arena, valid while its epoch matches the grower's. Nets that stay
	// fully internal or above the K-factor skip are never materialized.
	outs  []outsEntry
	arena []netlist.CellID // backing store for outs windows, reset per growth
	// pend lists the frontier cells whose gain the current addCell has
	// bumped but not yet pushed: all of one absorb's bumps to a cell
	// coalesce into a single heap push (see the flush at the end of
	// addCell for why that is output-invariant).
	pend []netlist.CellID
	// baseline selects the retained pre-overhaul inner loop: full
	// NetPins re-walks and one heap push per (net, cell) update. Used
	// by the hotpath experiment as the timing baseline and by the
	// differential tests as the bit-identity oracle.
	baseline bool
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
	// this worker executed; timed snapshots the package stage-timing
	// switch at acquire time so runSeed reads a plain bool. Harvested
	// and zeroed by runSeedPool when the worker drains.
	phases phaseAcc
	timed  bool

	ord   OrderingStats // reusable Phase I output (aliased by grow's return)
	curve Curve         // reusable Phase II score buffer (see scoreCurve)
	combo comboScratch  // reusable Phase III recombination arena
}

// frontEntry is one cell's frontier state, valid while the epoch bits
// of stamp match the grower's current epoch.
type frontEntry struct {
	gain  float64 // current connection weight
	tie   int32   // discovery index (BFS) or last verified cut-delta
	stamp uint32  // epoch bits plus per-growth flag bits
}

// outsEntry locates one net's live outside pins inside grower.arena,
// valid while epoch matches the grower's current epoch.
type outsEntry struct {
	off   int32
	n     int32
	epoch uint32
}

// Stamp layout: the low 23 bits are the growth epoch; above them sit
// two per-growth flag bits and a 7-bit heap-buffer slot hint. Flags
// and hint are implicitly cleared whenever the epoch bits go stale
// (liveness always compares stamp&epochMask), and the hint is
// additionally self-validating: the heap re-checks the slot's key
// before coalescing, so a hint left dangling by a pop or spill is
// merely a missed coalesce, never a wrong one.
const (
	epochMask   = 1<<23 - 1 // growth epoch
	pendingBit  = 1 << 23   // gain bumped this addCell, push pending
	examinedBit = 1 << 24   // already on the examined list this growth
	slotShift   = 25        // buffered-push slot hint (see GainHeap.PushHinted)
	slotMask    = uint32(0x7F) << slotShift
)

// Nets below group.WideNetMin pins are walked directly off the pin CSR
// instead of through a materialized live outside-pin list (see the
// dispatch in addCell): list upkeep only amortizes when the same net's
// pin run is re-walked many times, and for the narrow nets that
// dominate real netlists the direct walk's member-skip is cheaper than
// the arena traffic — skipping the list machinery also skips the
// per-net g.outs epoch probe, the absorb loop's one remaining random
// load besides the frontier itself. Wide nets are the asymptotic case
// the lists exist for: a mostly-absorbed wide net re-walked directly
// would cost its full pin run per absorb (the pre-overhaul
// O(Σ|e|·absorbs) pathology) where the live list costs only λ. The
// width test rides in on the AbsorbWideBit the tracker's Add already
// computed, so the dispatch is branch-only.

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
	g := &grower{
		nl:      nl,
		tracker: group.NewTracker(nl),
		front:   make([]frontEntry, nl.NumCells()),
		outs:    make([]outsEntry, nl.NumNets()),
	}
	return g
}

// rebind points the grower at a different netlist: the tracker is
// re-initialized for nl, the per-cell frontier and per-net outside-pin
// arrays are resliced to nl's size (reallocated only when their
// storage is too small), and the lazily built baseline tracker, sized
// for the old netlist, is dropped. Entries left over from earlier
// netlists need no clearing: their stamps hold past epochs, and the
// next growth bumps the epoch before reading any of them.
func (g *grower) rebind(nl *netlist.Netlist) {
	g.nl = nl
	g.tracker.Rebind(nl)
	g.front = resized(g.front, nl.NumCells())
	g.outs = resized(g.outs, nl.NumNets())
	g.btracker = nil
}

// attach swaps the grower's netlist references without touching its
// arrays: nil detaches an idle grower so it keeps no netlist
// reachable, and re-attaching the netlist of the last rebind resumes
// it.
func (g *grower) attach(nl *netlist.Netlist) {
	g.nl = nl
	g.tracker.Attach(nl)
	if g.btracker != nil {
		g.btracker.nl = nl
	}
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
	g.bheap.Reset()
	g.bumpEpoch()
	g.touched = g.touched[:0]
	g.examined = g.examined[:0]
	g.arena = g.arena[:0]
	g.pend = g.pend[:0]
}

// bumpEpoch invalidates every frontier entry and outside-pin list in
// O(1). On the (once per 2^23 growths) wraparound both arrays are
// cleared to their full capacity — a later rebind may reslice past the
// current length — so stale stamps from eight million growths ago
// cannot alias the fresh epoch.
func (g *grower) bumpEpoch() {
	g.epoch++
	if g.epoch > epochMask {
		clear(g.front[:cap(g.front)])
		clear(g.outs[:cap(g.outs)])
		g.epoch = 1
	}
}

// grow runs Phase I from seed, producing an ordering of at most maxLen
// cells (shorter if the seed's reachable region is exhausted). The
// returned stats alias the grower's reusable buffer and stay valid only
// until the next grow call; callers that keep prefixes copy them
// through group.Evaluator.Eval.
func (g *grower) grow(seed netlist.CellID, maxLen int) *OrderingStats {
	if g.baseline {
		return g.growBaseline(seed, maxLen)
	}
	g.reset()
	if maxLen > g.nl.NumCells() {
		maxLen = g.nl.NumCells()
	}
	out := &g.ord
	out.Members = out.Members[:0]
	out.Cuts = out.Cuts[:0]
	out.Pins = out.Pins[:0]
	record := func() {
		out.Members = append(out.Members, g.tracker.Members()[g.tracker.Size()-1])
		out.Cuts = append(out.Cuts, int32(g.tracker.Cut()))
		out.Pins = append(out.Pins, int64(g.tracker.Pins()))
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
		// v wins whatever its tie is — the baseline would at worst
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
			// baseline requeues at the exact value and keeps popping —
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
			// Requeue hinted: the old hint is dead (this pop removed the
			// entry it pointed at), so this records the requeued entry's
			// slot — a later gain bump coalesces onto it in place.
			slot := g.heap.PushHinted(int32(v), gain, fresh, fe.stamp>>slotShift)
			fe.stamp = fe.stamp&^slotMask | slot<<slotShift
			continue
		}
		return v, true
	}
}

// addCell absorbs v into the group and refreshes frontier weights.
//
// Output invariance of the two walk optimizations, relied on by the
// golden tests against addCellBaseline:
//
//   - Live outside-pin lists: a list is materialized in pin-run order
//     (minus already-absorbed members) and compacted in place, so the
//     surviving pins keep exactly the relative order the baseline's
//     full re-walk would visit them in. First-touch discovery order —
//     and with it every BFS/MinCut tiebreak — is therefore unchanged,
//     and within one net every outside pin receives the same gain
//     delta, so accumulation order per cell (net by net along
//     CellPins(v)) is unchanged too.
//
//   - Push coalescing: the baseline pushes after every per-net gain
//     bump; this loop pushes once per touched cell per absorb, at the
//     cell's final accumulated gain. Weighted deltas are strictly
//     positive, so every intermediate value the baseline pushes is
//     strictly below the cell's final gain of that absorb and can
//     never match fe.gain again (gains only grow) — popBest discards
//     such entries with zero side effects before they influence
//     anything. The heap's (gain desc, tie asc, key asc) order is a
//     total order, so dropping entries that could never win and
//     reordering the survivors' pushes leaves the pop sequence
//     bit-identical.
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
			// Fully internal: no frontier contribution left. The net's
			// list (if materialized) still holds v, but λ can never
			// grow, so it is dead for the rest of this growth.
			continue
		}
		if skip > 0 && lambda >= skip {
			// The paper's K-factor optimization: weight changes on
			// nets with many outside pins are negligible; skip them.
			// λ only shrinks, so a skipped net has never been
			// materialized either.
			continue
		}
		var delta float64
		if weighted {
			wNew := inv(lambda + 1)
			if s&group.AbsorbNewBit != 0 {
				delta = wNew // net newly connected to the group
			} else {
				delta = wNew - inv(lambda+2)
			}
		}
		var list []netlist.CellID
		direct := false
		if s&group.AbsorbWideBit == 0 {
			// Narrow net: a direct pin-run walk with member skipping is
			// cheaper than list upkeep. Members — v included — are
			// filtered by the Has check in the loops below; the visit
			// order equals the materialized order, so the two paths are
			// interchangeable absorb by absorb. Width is a property of
			// the net, not of λ — so the narrow majority never touches
			// g.outs at all, while a wide net keeps its amortized list
			// even once λ is small: its full pin run (the direct walk's
			// cost) only grows more member-heavy as the group absorbs it.
			list = g.nl.NetPins(e)
			if s&group.AbsorbNewBit != 0 && weighted {
				// Freshly connected: v is the net's only member, so the
				// member skip degenerates to an id compare — no bitset
				// load per pin. Same survivors, same order.
				for _, w := range list {
					if w == v {
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
				continue
			}
			direct = true
		} else if oe := &g.outs[e]; oe.epoch == epoch {
			// v was outside until this absorb: compact it out of the
			// live list, preserving the remaining pins' order.
			lst := g.arena[oe.off : oe.off+oe.n]
			for j, w := range lst {
				if w == v {
					copy(lst[j:], lst[j+1:])
					oe.n--
					break
				}
			}
			list = g.arena[oe.off : oe.off+oe.n]
		} else {
			// First walk of a wide net this growth: materialize its
			// live outside pins (pin-run order) into the arena, so later
			// walks cost λ live pins instead of |e| total. Offsets stay
			// valid across arena regrowth; the window slice is taken
			// afterwards.
			start := len(g.arena)
			if s&group.AbsorbNewBit != 0 {
				// Freshly connected: the only member to filter is v.
				for _, w := range g.nl.NetPins(e) {
					if w != v {
						g.arena = append(g.arena, w)
					}
				}
			} else {
				for _, w := range g.nl.NetPins(e) {
					if !t.Has(int(w)) {
						g.arena = append(g.arena, w)
					}
				}
			}
			oe.off = int32(start)
			oe.n = int32(len(g.arena) - start)
			oe.epoch = epoch
			list = g.arena[start:]
		}
		if weighted {
			for _, w := range list {
				if direct && t.Has(int(w)) {
					continue // direct pin-run walk: skip members
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
		} else {
			for _, w := range list {
				if direct && t.Has(int(w)) {
					continue // direct pin-run walk: skip members
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
		}
	}
	// Flush the coalesced pushes: one per cell this absorb touched, at
	// its final accumulated gain. The slot hint carried in the stamp
	// lets consecutive absorbs that bump the same cell overwrite its
	// still-buffered entry instead of queueing a stale duplicate — the
	// duplicate could only ever be discarded at pop (gains only grow),
	// so the pop sequence is unchanged while the main heap stays free
	// of superseded revisions.
	for _, w := range g.pend {
		fe := &front[w]
		st := fe.stamp &^ pendingBit
		slot := g.heap.PushHinted(w, fe.gain, fe.tie, st>>slotShift)
		fe.stamp = st&^slotMask | slot<<slotShift
	}
	g.pend = g.pend[:0]
}
