package core

import (
	"context"
	"fmt"
	"time"

	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Incremental detection.
//
// An ECO edit perturbs a handful of nets; the paper's structures are
// local, so most seeds of a re-run would read exactly the bytes they
// read last time. FindIncremental exploits that with an exact-replay
// argument rather than a heuristic:
//
//   - A recorded run (Options.RecordIncremental) stores, per seed, its
//     growths in the order it ran them — each one's start cell,
//     ordering with the per-prefix cuts Phase II scores, and structural
//     Rent exponent — the union of their exact read sets
//     (the "footprint": ordering members plus the frontier cells whose
//     own pin runs the grower re-verified), the seed's outcome, and
//     the A(G) that outcome was scored under.
//   - A delta reports its dirty cells: every cell on a touched net,
//     old or new side. A net incident to any cell a seed read is
//     touched only if that cell is dirty, so footprint ∩ dirty = ∅
//     proves every recorded growth would re-run byte-for-byte, and
//     every set the seed evaluated — each lies inside the footprint —
//     keeps its cut and pins. So does every recorded prefix: Phase II
//     sums its pins from the patched netlist's member degrees, which a
//     clean footprint leaves as they were.
//   - Such a seed under the recorded A(G) therefore has exactly its
//     recorded outcome, which replay returns verbatim: the common case
//     for pin-count-preserving edits (reconnects, splits, merges).
//   - Under a new A(G) (GTL-SD couples A_G into the score exponent, so
//     extraction must genuinely be re-decided) the seed runs the live
//     pipeline, runSeed, with its recorded growths as the growth
//     source: each growth whose start cell matches the recording is
//     read back instead of re-grown. A mismatch — an extraction that
//     flipped or moved, so Phase III draws other interior cells — is a
//     divergence, and the seed re-grows live.
//   - Seeds whose footprint intersects the dirty region re-grow live
//     too. Phase III pruning is global and always re-runs.
//
// The differential guarantee — incremental output equals a full run on
// the patched netlist — is locked by internal/netlist/deltatest.

// growth is one recorded Phase I run: its start cell, its ordering and
// the ordering's Rent exponent, which is structural like the ordering.
type growth struct {
	start netlist.CellID
	ord   OrderingStats
	rent  float64
}

// seedRecord is everything one executed seed needs for exact replay.
// Records are immutable once their run completes: a replaying run
// reuses a record whole under its A(G) and shares its footprint and
// growths under a new one.
type seedRecord struct {
	seed netlist.CellID
	// foot is the union read set of all the seed's growths. For
	// OrderWeighted/OrderBFS that is members ∪ examined (unexamined
	// frontier cells contribute only gains, which are functions of
	// member-incident nets — and a touched member-incident net makes
	// the member itself dirty); OrderMinCut reads every frontier
	// cell's pin run at insert, so there the whole touched set counts.
	foot  *ds.Bitset
	aG    float64  // A(G) out was scored under
	out   seedOut  // the seed's outcome
	grows []growth // growth 0 from the seed, then refinement re-growths
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
// (or their footprints and growths) with the previous state, so chains
// of deltas stay cheap.
type IncrementalState struct {
	key    string        // Options.Key of the recorded run
	maxLen int           // effective ordering cap of the detection level
	seeds  []*seedRecord // by seed index; nil where no seed ran

	coarseNl  *netlist.Netlist // multilevel only: the detection level
	coarseKey string           // multilevel only: its options' key
}

// MemoryEstimate reports the state's retained bytes; see
// IncrementalStatesMemory.
func (st *IncrementalState) MemoryEstimate() int64 { return IncrementalStatesMemory(st) }

// IncrementalStatesMemory reports the bytes a set of recorded states
// retains: footprint bitsets, recorded orderings (8 B per ordered cell:
// its id and its prefix's cut), outcome candidates and, for multilevel
// states, the coarse netlist. Each is counted once however many of the
// states share it, as the states of one delta chain do. nil states are
// skipped.
func IncrementalStatesMemory(states ...*IncrementalState) int64 {
	seen := make(map[any]bool)
	first := func(p any) bool {
		if seen[p] {
			return false
		}
		seen[p] = true
		return true
	}
	var b int64
	for _, st := range states {
		if st == nil {
			continue
		}
		if st.coarseNl != nil && first(st.coarseNl) {
			b += st.coarseNl.MemoryFootprint()
		}
		for _, r := range st.seeds {
			if r == nil {
				continue
			}
			if first(r.foot) {
				b += int64(r.foot.Capacity()) / 8
			}
			if len(r.grows) > 0 && first(&r.grows[0]) {
				for i := range r.grows {
					o := &r.grows[i].ord
					b += int64(cap(o.Members))*4 + int64(cap(o.Cuts))*4
				}
			}
			if c := r.out.cand; c != nil && first(c) {
				b += int64(cap(c.Members)) * 4
			}
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

// replay answers a recorded seed whose footprint the edit left clean.
// Under the A(G) its outcome was scored under, that outcome is exact
// and comes back verbatim with the record itself. Under a new A(G) the
// seed runs the pipeline over its recorded growths, and the returned
// record pairs the new outcome with the old footprint and growths. ok
// is false when the replay diverges from the recording.
func (p *seedPipe) replay(rec *seedRecord, rng *ds.RNG) (seedOut, *seedRecord, bool) {
	if rec.aG == p.aG {
		return rec.out, rec, true
	}
	p.from = rec
	out, ok := p.runSeed(rng, rec.seed)
	p.from = nil
	if !ok {
		return seedOut{}, nil, false
	}
	return out, &seedRecord{seed: rec.seed, foot: rec.foot, aG: p.aG, out: out, grows: rec.grows}, true
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
