package core

import (
	"context"
	"fmt"
	"sync/atomic"
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
//   - Seeds whose footprint intersects the (DirtyRadius-expanded)
//     dirty region, or whose replay diverges from the recorded control
//     flow (an extraction flipped under the new A_G), re-run the full
//     growth pipeline. Phase III pruning is global and always re-runs.
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

// IncrementalState is the recorded per-seed state of one run, attached
// to its Result under Options.RecordIncremental and consumed by
// FindIncremental. For a flat run it holds the per-seed records
// directly; for a multilevel run it wraps the coarsest level's state
// together with the coarse netlist it was recorded on, so a later run
// can diff its own coarsening against the recorded one and replay
// coarse seeds. It is immutable once built; replayed seeds of an
// incremental run share their records with the previous state, so
// chains of deltas stay cheap.
type IncrementalState struct {
	cells  int    // NumCells of the recorded run's netlist
	maxLen int    // effective ordering cap min(MaxOrderLen, cells)
	key    string // Options.IncrementalKey of the recorded run
	seeds  []*seedRecord

	// Multilevel wrapping (nil/zero for flat states): the recorded
	// run's Levels, the coarsest-level netlist it detected on, and the
	// coarse-level state recorded there.
	levels   int
	coarseNl *netlist.Netlist
	inner    *IncrementalState
}

// wrapMLIncrState wraps a coarse-level recorded state as the
// multilevel state of the fine run: outer key/cells/maxLen describe
// the fine run (so a flat FindIncremental can cheaply reject it), the
// inner state and coarse netlist feed the coarse diff-and-replay.
func wrapMLIncrState(opt *Options, fineCells int, coarseNl *netlist.Netlist, inner *IncrementalState) *IncrementalState {
	maxLen := opt.MaxOrderLen
	if maxLen > fineCells {
		maxLen = fineCells
	}
	return &IncrementalState{
		cells:    fineCells,
		maxLen:   maxLen,
		key:      opt.IncrementalKey(),
		levels:   opt.Levels,
		coarseNl: coarseNl,
		inner:    inner,
	}
}

// Seeds reports how many executed seeds the state holds (the coarse
// level's, for a multilevel state).
func (st *IncrementalState) Seeds() int {
	if st.inner != nil {
		return st.inner.Seeds()
	}
	n := 0
	for _, r := range st.seeds {
		if r != nil {
			n++
		}
	}
	return n
}

// MemoryEstimate reports the state's retained bytes: footprint bitsets
// plus the stored growth records, and for multilevel states the
// retained coarse netlist plus the wrapped coarse state.
func (st *IncrementalState) MemoryEstimate() int64 {
	var b int64
	if st.inner != nil {
		b += st.inner.MemoryEstimate()
	}
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

// buildIncrState indexes completed shard records by seed index.
func (f *Finder) buildIncrState(opt *Options, outs []shardOut, recs []*seedRecord) *IncrementalState {
	if recs == nil {
		return nil
	}
	st := &IncrementalState{
		cells: f.nl.NumCells(),
		key:   opt.IncrementalKey(),
		seeds: make([]*seedRecord, opt.Seeds),
	}
	st.maxLen = opt.MaxOrderLen
	if st.maxLen > st.cells {
		st.maxLen = st.cells
	}
	for k := range outs {
		st.seeds[outs[k].idx] = recs[k]
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
func (f *Finder) replaySeed(ws *workerState, rec *seedRecord, idx int, opt *Options) (shardOut, bool) {
	sameAG := rec.aG == f.aG && !opt.KeepCurves
	out := shardOut{idx: idx}
	out.trace = SeedTrace{Seed: rec.seed, OrderLen: len(rec.ord.members)}
	var ex extraction
	if sameAG {
		if !rec.extracted {
			return out, true
		}
		ex = extraction{size: rec.size, score: rec.score, rent: rec.ord.rent, ok: true}
	} else {
		curve := &ws.gr.curve
		if opt.KeepCurves {
			curve = &Curve{}
		}
		rescoreInto(curve, &rec.ord, opt.Metric, f.aG)
		ex = extract(curve, opt)
		if opt.KeepCurves {
			out.trace.Curve = curve
		}
		if !ex.ok {
			// A full run would reject this curve too (same integers,
			// same A_G): no candidate, no Phase III, nothing to replay.
			return out, true
		}
		if !rec.extracted || ex.size != rec.size {
			return shardOut{}, false
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
			return shardOut{}, false
		}
		s := base.Members[rng.Intn(base.Size())]
		rr := &rec.refine[r]
		if rr.seed != s {
			return shardOut{}, false
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

// expandDirty grows the dirty set by `radius` BFS hops over the
// patched netlist (through nets, so one hop reaches every co-pinned
// cell). Out-of-range ids — cells a delta truncated away — are
// dropped; their former neighbors are dirty in their own right.
func expandDirty(nl *netlist.Netlist, dirty []netlist.CellID, radius int) *ds.Bitset {
	n := nl.NumCells()
	region := ds.NewBitset(n)
	frontier := make([]netlist.CellID, 0, len(dirty))
	for _, c := range dirty {
		if c >= 0 && int(c) < n && region.Add(int(c)) {
			frontier = append(frontier, c)
		}
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []netlist.CellID
		for _, c := range frontier {
			for _, e := range nl.CellPins(c) {
				for _, w := range nl.NetPins(e) {
					if region.Add(int(w)) {
						next = append(next, w)
					}
				}
			}
		}
		frontier = next
	}
	return region
}

// reusableRecord returns seed index i's record when it can be replayed
// against the given dirty region, nil when the seed must re-run.
func (st *IncrementalState) reusableRecord(i int, id netlist.CellID, region *ds.Bitset) *seedRecord {
	if i >= len(st.seeds) {
		return nil
	}
	rec := st.seeds[i]
	if rec == nil || rec.seed != id {
		return nil
	}
	if rec.foot.IntersectsWith(region) {
		return nil
	}
	return rec
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
// harness in internal/netlist/deltatest enforces this. When reuse is
// impossible (no state, changed options, or a dirty region past
// Options.IncrementalFallback of the netlist) it degrades to a full
// run and says so in Result.Incremental.
//
// With Options.Levels > 1 the engine rebuilds the hierarchy over the
// patched netlist, diffs its coarsest level against the recorded
// run's (netlist.DiffDirty), replays coarse seeds whose footprints
// miss the coarse diff, and re-runs the projection descent — so
// multilevel and incremental compose. A reshaped coarsening (the diff
// is not local) degrades to a full multilevel run, reported in
// Result.Incremental like every other fallback.
func (f *Finder) FindIncremental(ctx context.Context, opt Options, prev *Result, dirty []netlist.CellID) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Levels > 1 {
		return f.findIncrementalMultilevel(ctx, &opt, prev, dirty)
	}
	return f.findIncrementalFlat(ctx, &opt, prev, dirty)
}

// findIncrementalMultilevel composes incremental replay with the
// multilevel pipeline: coarsen the patched netlist, localize the edit
// at the coarsest level by diffing against the recorded coarse
// netlist, run the flat incremental machinery there, then project the
// result down as any multilevel run would.
func (f *Finder) findIncrementalMultilevel(ctx context.Context, opt *Options, prev *Result, dirty []netlist.CellID) (*Result, error) {
	start := time.Now()
	ms, err := f.multilevelState(opt)
	if err != nil {
		return nil, err
	}
	L := ms.hier.NumLevels()
	if L == 1 {
		// Degenerate hierarchy (netlist at or below the coarsening
		// floor): a recorded run under these options degenerated the
		// same way, so flat incremental is multilevel incremental.
		return f.findIncrementalFlat(ctx, opt, prev, dirty)
	}

	fallback := func(reason string) (*Result, error) {
		res, err := f.findMultilevel(ctx, opt)
		if res != nil {
			res.Incremental = &IncrStats{
				DirtyCells:     len(dirty),
				FullFallback:   true,
				FallbackReason: reason,
			}
			res.Elapsed = time.Since(start)
		}
		return res, err
	}

	var st *IncrementalState
	if prev != nil {
		st = prev.IncrState
	}
	if st == nil {
		return fallback("previous result carries no incremental state (run with record_incremental)")
	}
	if st.key != opt.IncrementalKey() {
		return fallback("result-affecting options differ from the recorded run")
	}
	if st.inner == nil || st.coarseNl == nil {
		return fallback("recorded state is flat; multilevel replay needs a multilevel recording")
	}
	top := ms.finders[L-1]
	cdirty, ok := netlist.DiffDirty(st.coarseNl, top.nl)
	if !ok {
		return fallback("coarsening reshaped under the edit; no local coarse diff exists")
	}

	copt := coarseOptions(opt, f.nl.NumCells(), top.nl.NumCells(), L-1)
	detectStart := time.Now()
	cres, runErr := top.FindIncremental(ctx, copt, &Result{IncrState: st.inner}, cdirty)
	if cres == nil {
		return nil, runErr
	}
	res, runErr := f.projectDown(ctx, opt, ms, cres,
		float64(time.Since(detectStart))/float64(time.Millisecond), runErr)
	if cres.Incremental != nil {
		// Surface the coarse reuse breakdown, but report the dirty set
		// the caller actually handed in (ReseededCells stays coarse —
		// that is where re-detection happened).
		stats := *cres.Incremental
		stats.DirtyCells = len(dirty)
		res.Incremental = &stats
	}
	if runErr == nil && opt.RecordIncremental && cres.IncrState != nil {
		res.IncrState = wrapMLIncrState(opt, f.nl.NumCells(), top.nl, cres.IncrState)
	}
	res.Elapsed = time.Since(start)
	return res, runErr
}

// findIncrementalFlat is the single-level incremental pipeline.
func (f *Finder) findIncrementalFlat(ctx context.Context, opt *Options, prev *Result, dirty []netlist.CellID) (*Result, error) {
	start := time.Now()
	n := f.nl.NumCells()

	fallback := func(reason string) (*Result, error) {
		res, err := f.findFlat(ctx, opt)
		if res != nil {
			res.Incremental = &IncrStats{
				DirtyCells:     len(dirty),
				FullFallback:   true,
				FallbackReason: reason,
			}
			res.Elapsed = time.Since(start)
		}
		return res, err
	}

	var st *IncrementalState
	if prev != nil {
		st = prev.IncrState
	}
	if st == nil {
		return fallback("previous result carries no incremental state (run with record_incremental)")
	}
	if st.key != opt.IncrementalKey() {
		return fallback("result-affecting options differ from the recorded run")
	}
	effLen := opt.MaxOrderLen
	if effLen > n {
		effLen = n
	}
	if st.maxLen != effLen {
		return fallback(fmt.Sprintf("effective ordering cap changed (%d -> %d)", st.maxLen, effLen))
	}
	region := expandDirty(f.nl, dirty, opt.DirtyRadius)
	frac := float64(region.Len()) / float64(n)
	if frac > opt.IncrementalFallback {
		return fallback(fmt.Sprintf("dirty region spans %.1f%% of cells (fallback threshold %.0f%%)", 100*frac, 100*opt.IncrementalFallback))
	}

	plan := f.plan(opt)
	var owners []int
	for i := 0; i < opt.Seeds; i++ {
		if plan.owner[i] == i {
			owners = append(owners, i)
		}
	}

	outs := make([]shardOut, len(owners))
	replayed := make([]bool, len(owners))
	var recs []*seedRecord
	if opt.RecordIncremental {
		recs = make([]*seedRecord, len(owners))
	}
	// The replay-vs-reseed wall-time split for Result.Stages: a seed
	// that fails replay and falls through to the full pipeline counts
	// wholly as reseed (its grow/score/recombine phases also land in
	// the worker's phase clocks).
	var replayNS, reseedNS atomic.Int64
	completed, sched, phases := f.runSeedPool(ctx, opt, len(owners), func(ws *workerState, k int) bool {
		i := owners[k]
		t := clock()
		if rec := st.reusableRecord(i, plan.ids[i], region); rec != nil {
			if o, ok := f.replaySeed(ws, rec, i, opt); ok {
				outs[k] = o
				replayed[k] = true
				if recs != nil {
					recs[k] = rec // immutable; chains share it
				}
				replayNS.Add(int64(clock().Sub(t)))
				return o.cand != nil
			}
		}
		var rec *seedRecord
		if recs != nil {
			rec = &seedRecord{}
			recs[k] = rec
		}
		o := runSeed(f.nl, ws.gr, ws.ev, seedRNG(opt.RandSeed, i), plan.ids[i], opt, f.aG, rec)
		outs[k] = shardOut{idx: i, trace: o.trace, cand: o.candidate, score: o.score, rent: o.rent}
		reseedNS.Add(int64(clock().Sub(t)))
		return o.candidate != nil
	})

	stats := &IncrStats{DirtyCells: len(dirty), ReseededCells: region.Len()}
	replayedCand := make(map[netlist.CellID]bool)
	var doneOuts []shardOut
	var doneRecs []*seedRecord
	for k := range outs {
		if !completed[k] {
			continue
		}
		doneOuts = append(doneOuts, outs[k])
		if recs != nil {
			doneRecs = append(doneRecs, recs[k])
		}
		if replayed[k] {
			stats.ReusedSeeds++
			if outs[k].cand != nil {
				replayedCand[outs[k].trace.Seed] = true
			}
		} else {
			stats.RerunSeeds++
		}
	}

	res := f.assemble(opt, plan, doneOuts)
	res.Incremental = stats
	res.Sched = &sched
	res.Stages.Merge(phases.stages())
	if v := replayNS.Load(); v > 0 {
		res.Stages.Add(StageReplay, time.Duration(v))
	}
	if v := reseedNS.Load(); v > 0 {
		res.Stages.Add(StageReseed, time.Duration(v))
	}
	for i := range res.GTLs {
		if replayedCand[res.GTLs[i].Seed] {
			stats.ReusedGroups++
		}
	}
	res.Elapsed = time.Since(start)
	if err := ctx.Err(); err != nil && len(doneOuts) < len(owners) {
		return res, fmt.Errorf("core: incremental run cancelled after %d/%d seeds: %w", len(doneOuts), len(owners), err)
	}
	if opt.RecordIncremental {
		res.IncrState = f.buildIncrState(opt, doneOuts, doneRecs)
	}
	return res, nil
}
