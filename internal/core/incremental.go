package core

import (
	"context"
	"fmt"
	"time"

	"tanglefind/internal/ds"
	"tanglefind/internal/group"
	"tanglefind/internal/netlist"
)

// Incremental detection.
//
// An ECO edit perturbs a handful of nets; the paper's structures are
// local, so most seeds of a re-run would read exactly the bytes they
// read last time. FindIncremental exploits that with an exact-replay
// argument rather than a heuristic:
//
//   - A recorded run (Options.RecordIncremental) stores, per seed, the
//     structural outcome of every growth — the ordering members and
//     the per-prefix cut/pin totals Phase II scores are computed from
//     — plus the growth's exact read set (its "footprint": ordering
//     members plus the frontier cells whose own pin runs the grower
//     re-verified). Scores themselves are NOT stored: they depend on
//     the netlist-wide A(G), which almost every delta changes.
//   - A delta reports its dirty cells: every cell on a touched net,
//     old or new side. A net incident to any cell a seed read is
//     touched only if that cell is dirty, so footprint ∩ dirty = ∅
//     proves the seed's growths would re-run byte-for-byte.
//   - For such seeds, replay re-derives Phase II from the stored
//     cut/pin curves under the patched netlist's A(G) (GTL-SD couples
//     A_G into the score exponent, so extraction must genuinely be
//     re-decided), re-evaluates candidate sets on the patched netlist
//     and re-runs recombination — identical to what a full run would
//     compute, at O(ordering length) cost instead of a growth.
//   - Seeds whose footprint intersects the dirty region, or whose
//     replay diverges from the recorded control flow (an extraction
//     flipped under the new A_G), re-run the full growth pipeline.
//     Phase III pruning is global and always re-runs.
//
// The differential guarantee — incremental output equals a full run on
// the patched netlist — is locked by internal/netlist/deltatest.

// ordRecord is the structural (A_G-independent) content of one growth:
// the ordering and the per-prefix totals its score curve derives from.
type ordRecord struct {
	members []netlist.CellID
	cuts    []int32
	pins    []int64
	rent    float64 // averageRent of the ordering; structural too
}

func copyOrdRecord(o *OrderingStats, rent float64) ordRecord {
	return ordRecord{
		members: append([]netlist.CellID(nil), o.Members...),
		cuts:    append([]int32(nil), o.Cuts...),
		pins:    append([]int64(nil), o.Pins...),
		rent:    rent,
	}
}

// refineRecord is one Phase III re-growth: the interior cell drawn
// (verified on replay against the reproduced RNG stream), its growth
// record and its Phase II outcome at record time — the latter lets
// A_G-preserving replays skip rescoring entirely.
type refineRecord struct {
	seed      netlist.CellID
	ord       ordRecord
	extracted bool
	size      int
}

// seedRecord is everything one executed seed needs for exact replay.
type seedRecord struct {
	seed netlist.CellID
	// foot is the union read set of all the seed's growths. For
	// OrderWeighted/OrderBFS that is members ∪ examined (unexamined
	// frontier cells contribute only gains, which are functions of
	// member-incident nets — and a touched member-incident net makes
	// the member itself dirty); OrderMinCut reads every frontier
	// cell's pin run at insert, so there the whole touched set counts.
	foot      *ds.Bitset
	aG        float64 // A(G) the curves were scored under
	ord       ordRecord
	extracted bool    // Phase II outcome at record time
	size      int     // extraction size at record time
	score     float64 // extraction score at record time
	refine    []refineRecord
}

// markFootprint folds the grower's current growth into the record's
// read set; must run before the grower's next grow call resets it.
func (rec *seedRecord) markFootprint(gr *grower) {
	if gr.opt.Ordering == OrderMinCut {
		for _, c := range gr.touched {
			rec.foot.Add(int(c))
		}
		return
	}
	for _, c := range gr.ord.Members {
		rec.foot.Add(int(c))
	}
	for _, c := range gr.examined {
		rec.foot.Add(int(c))
	}
}

// IncrementalState is the recorded per-seed state of one run,
// attached to its Result under Options.RecordIncremental and consumed
// by FindIncremental. It holds one record per seed of the level the
// seeds ran on; a multilevel recording ran them on its coarsest level
// and also keeps that level's netlist, which a later run diffs its own
// coarsening against, and that level's options key. It is immutable
// once built; replayed seeds of an incremental run share their records
// with the previous state, so chains of deltas stay cheap.
type IncrementalState struct {
	key    string        // Options.Key of the recorded run
	maxLen int           // effective ordering cap of the detection level
	seeds  []*seedRecord // by seed index; nil where no seed ran

	coarseNl  *netlist.Netlist // multilevel only: the detection level
	coarseKey string           // multilevel only: its options' key
}

// MemoryEstimate reports the state's retained bytes: footprint bitsets
// plus the stored growth records, and for multilevel states the
// retained coarse netlist.
func (st *IncrementalState) MemoryEstimate() int64 {
	var b int64
	if st.coarseNl != nil {
		b += st.coarseNl.MemoryFootprint()
	}
	ord := func(o *ordRecord) {
		b += int64(cap(o.members))*4 + int64(cap(o.cuts))*4 + int64(cap(o.pins))*8
	}
	for _, r := range st.seeds {
		if r == nil {
			continue
		}
		b += int64(r.foot.Capacity()) / 8
		ord(&r.ord)
		for i := range r.refine {
			ord(&r.refine[i].ord)
		}
	}
	return b
}

// record indexes a completed run's seed records into its state.
func (lv *detectLevel) record(opt *Options, sr *seedRun) *IncrementalState {
	st := &IncrementalState{key: opt.Key(), maxLen: lv.maxLen(), seeds: make([]*seedRecord, opt.Seeds)}
	for k := range sr.outs {
		st.seeds[sr.outs[k].idx] = sr.recs[k]
	}
	if lv.ms != nil {
		st.coarseNl, st.coarseKey = lv.f.nl, lv.opt.Key()
	}
	return st
}

// rescoreInto recomputes a growth's Phase II curve from its structural
// record under a (possibly new) A(G), through the same scoring loop a
// live re-growth would run (scoreCurveWithRent) with the stored
// structural rent — so a replayed curve is bit-identical by
// construction.
func rescoreInto(c *Curve, rec *ordRecord, m Metric, aG float64) {
	o := OrderingStats{Members: rec.members, Cuts: rec.cuts, Pins: rec.pins}
	scoreCurveWithRent(c, &o, rec.rent, m, aG)
}

// replaySeed reproduces one recorded seed's outcome on the patched
// netlist without re-growing. It reports ok=false when the replay
// would diverge from the recorded control flow — a Phase II extraction
// that flipped or moved under the new A(G) changes which interior
// cells Phase III draws, so the seed must re-run its growths instead.
//
// When the patched A(G) is bitwise-identical to the recorded one (the
// common case for pin-count-preserving ECO edits: reconnects, splits,
// merges) the recorded Phase II outcomes ARE this run's outcomes, so
// rescoring is skipped entirely and the replay is just the candidate
// set evaluations and recombination.
func (f *Finder) replaySeed(ws *workerState, rec *seedRecord, idx int, opt *Options) (seedOut, bool) {
	sameAG := rec.aG == f.aG
	out := seedOut{idx: idx, replayed: true}
	out.trace = SeedTrace{Seed: rec.seed, OrderLen: len(rec.ord.members)}
	var ex extraction
	if sameAG {
		if !rec.extracted {
			return out, true
		}
		ex = extraction{size: rec.size, score: rec.score, rent: rec.ord.rent, ok: true}
	} else {
		curve := &ws.gr.curve
		rescoreInto(curve, &rec.ord, opt.Metric, f.aG)
		ex = extract(curve, opt)
		if !ex.ok {
			// A full run would reject this curve too (same integers,
			// same A_G): no candidate, no Phase III, nothing to replay.
			return out, true
		}
		if !rec.extracted || ex.size != rec.size {
			return seedOut{}, false
		}
	}
	out.trace.Extracted = true
	out.trace.Size = ex.size
	out.trace.Score = ex.score

	base := ws.ev.Eval(rec.ord.members[:ex.size])
	if !opt.Refine {
		out.cand, out.score, out.rent = &base, ex.score, ex.rent
		return out, true
	}
	rng := seedRNG(opt.RandSeed, idx)
	family := []group.Set{base}
	var rc Curve
	for r := 0; r < opt.RefineSeeds && base.Size() > 0; r++ {
		if r >= len(rec.refine) {
			return seedOut{}, false
		}
		s := base.Members[rng.Intn(base.Size())]
		rr := &rec.refine[r]
		if rr.seed != s {
			return seedOut{}, false
		}
		ok2, size2 := rr.extracted, rr.size
		if !sameAG {
			rescoreInto(&rc, &rr.ord, opt.Metric, f.aG)
			ex2 := extract(&rc, opt)
			ok2, size2 = ex2.ok, ex2.size
		}
		if !ok2 {
			continue
		}
		family = append(family, ws.ev.Eval(rr.ord.members[:size2]))
	}
	refined, score := recombine(ws.ev, &ws.gr.combo, family, ex, opt, f.aG)
	out.cand, out.score, out.rent = refined, score, ex.rent
	return out, true
}

// fallbackFrac is the dirty fraction of the detection level past which
// FindIncremental abandons reuse and runs the full pipeline: edits that
// large dirty most seed footprints anyway.
const fallbackFrac = 0.25

// replaySrc is what a replaying run's seeds consult: the previous
// run's recorded state and the dirty region on the detection level.
type replaySrc struct {
	st     *IncrementalState
	region *ds.Bitset
}

// replaySource checks prev's recorded state against a run on level lv
// and returns the source its seeds replay from, or nil and the reason
// the run must start over. The checks run in a fixed order — options
// key; on a coarse level the recording's shape, the coarse diff and
// the coarse options key; ordering cap; dirty fraction — so a run that
// fails several reports the same reason every time.
func (lv *detectLevel) replaySource(opt *Options, prev *Result, dirty []netlist.CellID) (*replaySrc, string) {
	var st *IncrementalState
	if prev != nil {
		st = prev.IncrState
	}
	switch {
	case st == nil:
		return nil, "previous result carries no incremental state (run with record_incremental)"
	case st.key != opt.Key():
		return nil, "result-affecting options differ from the recorded run"
	case lv.ms == nil && st.coarseNl != nil:
		return nil, "recorded state is multilevel; the patched netlist no longer coarsens"
	}
	if lv.ms != nil {
		if st.coarseNl == nil {
			return nil, "recorded state is flat; multilevel replay needs a multilevel recording"
		}
		var ok bool
		if dirty, ok = netlist.DiffDirty(st.coarseNl, lv.f.nl); !ok {
			return nil, "coarsening reshaped under the edit; no local coarse diff exists"
		}
		if st.coarseKey != lv.opt.Key() {
			return nil, "result-affecting options differ from the recorded run"
		}
	}
	if n := lv.maxLen(); st.maxLen != n {
		return nil, fmt.Sprintf("effective ordering cap changed (%d -> %d)", st.maxLen, n)
	}
	// Out-of-range ids — cells a delta truncated away — are dropped;
	// their former neighbors are dirty in their own right.
	n := lv.f.nl.NumCells()
	region := ds.NewBitset(n)
	for _, c := range dirty {
		if c >= 0 && int(c) < n {
			region.Add(int(c))
		}
	}
	if frac := float64(region.Len()) / float64(n); frac > fallbackFrac {
		return nil, fmt.Sprintf("dirty region spans %.1f%% of cells (fallback threshold %.0f%%)", 100*frac, 100*fallbackFrac)
	}
	return &replaySrc{st: st, region: region}, ""
}

// stats is the reuse breakdown of a replaying run from its detection
// level's seed outcomes and pruned groups.
func (src *replaySrc) stats(outs []seedOut, gtls []GTL) *IncrStats {
	st := &IncrStats{ReseededCells: src.region.Len()}
	replayedCand := make(map[netlist.CellID]bool)
	for k := range outs {
		if !outs[k].replayed {
			st.RerunSeeds++
			continue
		}
		st.ReusedSeeds++
		if outs[k].cand != nil {
			replayedCand[outs[k].trace.Seed] = true
		}
	}
	for i := range gtls {
		if replayedCand[gtls[i].Seed] {
			st.ReusedGroups++
		}
	}
	return st
}

// FindIncremental runs detection over the engine's (patched) netlist
// after a delta, reusing the recorded state of a previous run where
// the edit provably cannot have changed a seed's computation. dirty is
// the delta's dirty cell set in the patched netlist's id space
// (DeltaEffect.Dirty); prev is the previous run's Result, which must
// carry IncrState (a run made with Options.RecordIncremental — or a
// previous FindIncremental, so delta chains compose).
//
// The output is exactly what Find would return on the same netlist and
// Options — same groups, same scores — only faster; the differential
// harness in internal/netlist/deltatest enforces this. The seeds run
// on the level Find would pick. With Options.Levels > 1 that is the
// coarsest level of the patched netlist's hierarchy: its diff against
// the recorded coarse netlist (netlist.DiffDirty) is the dirty set
// there, and the winners are projected down as in any multilevel run.
// The recorded run must agree with opt on Options.Key, so options the
// pipeline never reads (RefineRadius on a flat run, say) do not block
// reuse. When reuse is impossible — no state, a different Key, a
// recording of the other shape, a reshaped coarsening, a changed
// ordering cap, or a dirty region past 25% of the detection level's
// cells — it degrades to a full run and says why in
// Result.Incremental.
func (f *Finder) FindIncremental(ctx context.Context, opt Options, prev *Result, dirty []netlist.CellID) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	lv, err := f.pickLevel(&opt)
	if err != nil {
		return nil, err
	}
	src, reason := lv.replaySource(&opt, prev, dirty)
	res, err := f.run(ctx, &opt, lv, src, start)
	if src == nil {
		res.Incremental = &IncrStats{FullFallback: true, FallbackReason: reason}
	}
	// ReseededCells stays on the detection level, where re-detection
	// happened; DirtyCells is the set the caller handed in.
	res.Incremental.DirtyCells = len(dirty)
	return res, err
}
