package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tanglefind/internal/group"
	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
	"tanglefind/internal/telemetry"
)

// This file is the multilevel detection pipeline: coarsen → detect →
// project + refine. A flat run's cost is seeds × ordering length ×
// pin degree, all at full netlist resolution; the multilevel run
// instead coarsens the netlist by repeated heavy-edge matching
// (internal/netlist.BuildHierarchy), runs the complete three-phase
// seed-and-grow detection on the coarsest level — where orderings are
// 2^(Levels-1) times shorter — and then carries each winning group
// back down, expanding its members one level at a time and running a
// bounded boundary-refinement sweep at every finer level to recover
// the cells the coarse boundary quantized away. Final scoring, and
// the global disjointness pruning, happen at the original resolution.

// mlKey identifies one hierarchy configuration of a Finder: the
// coarsening fields of the run's canonical options (see Options.Key).
type mlKey struct {
	levels    int
	minCoarse int
}

// maxHierarchies bounds how many hierarchy configurations one engine
// caches. (Levels, MinCoarseCells) is client-controlled in serving
// deployments, and each cached hierarchy is O(cells+pins) — without a
// bound a client cycling min_coarse_cells values could grow engine
// memory without limit. Past the bound the oldest configuration is
// evicted; an evicted configuration simply rebuilds on next use.
const maxHierarchies = 4

// mlState caches a built hierarchy plus one sub-engine per coarse
// level, so repeated multilevel runs over one netlist pay the
// coarsening cost once. Sub-engines draw their worker states from the
// shared pool like any other engine.
type mlState struct {
	hier    *netlist.Hierarchy
	finders []*Finder // finders[0] is the owning engine itself
}

// mlEntry is one cache slot: the build runs under the entry's Once —
// outside the cache mutex — so a multi-second coarsening of a large
// netlist never blocks readers like MemoryEstimate, while
// concurrent runs with the same configuration still build only once.
type mlEntry struct {
	once sync.Once
	s    *mlState
	err  error
}

// LevelStats describes one level's share of a multilevel run, for
// results, the serving stats endpoint and the experiment tables.
type LevelStats struct {
	Level       int     `json:"level"` // 0 = original/finest
	Cells       int     `json:"cells"`
	Nets        int     `json:"nets"`
	SeedsRun    int     `json:"seeds_run,omitempty"`    // detection level only
	Candidates  int     `json:"candidates,omitempty"`   // detection level only
	RefineAdded int     `json:"refine_added,omitempty"` // cells absorbed by boundary refinement
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// multilevelState returns (building and caching on first use) the
// hierarchy and sub-engines for the run's coarsening configuration.
func (f *Finder) multilevelState(opt *Options) (*mlState, error) {
	// The canonical options map an omitted floor to the default one,
	// so both share one hierarchy.
	c := opt.canonical()
	key := mlKey{levels: c.Levels, minCoarse: c.MinCoarseCells}
	f.mlMu.Lock()
	if f.ml == nil {
		f.ml = make(map[mlKey]*mlEntry)
	}
	e, ok := f.ml[key]
	if !ok {
		e = &mlEntry{}
		f.ml[key] = e
		f.mlOrder = append(f.mlOrder, key)
		for len(f.mlOrder) > maxHierarchies {
			delete(f.ml, f.mlOrder[0])
			f.mlOrder = f.mlOrder[1:]
		}
	}
	f.mlMu.Unlock()
	e.once.Do(func() {
		s, err := f.buildMLState(opt)
		// Publish under the cache mutex so concurrent snapshot readers
		// (MemoryEstimate) see a consistent entry; waiters on
		// the Once itself are ordered by its happens-before edge.
		f.mlMu.Lock()
		e.s, e.err = s, err
		f.mlMu.Unlock()
	})
	return e.s, e.err
}

// buildMLState coarsens the netlist and constructs the per-level
// sub-engines for one configuration.
func (f *Finder) buildMLState(opt *Options) (*mlState, error) {
	h, err := netlist.BuildHierarchy(f.nl, netlist.CoarsenOptions{
		Levels:   opt.Levels,
		MinCells: opt.MinCoarseCells,
	})
	if err != nil {
		return nil, err
	}
	s := &mlState{hier: h, finders: make([]*Finder, h.NumLevels())}
	s.finders[0] = f
	for l := 1; l < h.NumLevels(); l++ {
		sub, err := NewFinder(h.Level(l))
		if err != nil {
			return nil, fmt.Errorf("core: level %d engine: %w", l, err)
		}
		s.finders[l] = sub
	}
	return s, nil
}

// coarseOptions derives the detection options for the coarsest level:
// size-dependent knobs shrink by the aggregation ratio (a coarse cell
// stands for ~ratio fine cells), everything else carries over, and
// the ordering cap never swallows the coarse netlist whole — Phase II
// needs exterior curve to contrast a minimum against.
func coarseOptions(opt *Options, fineCells, coarseCells, level int) Options {
	c := *opt
	c.Levels = 1
	ratio := float64(fineCells) / float64(coarseCells)
	c.MaxOrderLen = int(float64(opt.MaxOrderLen) / ratio)
	if c.MaxOrderLen > coarseCells/2 {
		c.MaxOrderLen = coarseCells / 2
	}
	if c.MaxOrderLen < 2 {
		c.MaxOrderLen = 2
	}
	if opt.MinGroupSize > 0 {
		c.MinGroupSize = int(float64(opt.MinGroupSize) / ratio)
		if c.MinGroupSize < 2 {
			c.MinGroupSize = 2
		}
	}
	c.BigNetSkip = scaledSkip(opt.BigNetSkip, ratio)
	c.Progress = nil
	if opt.Progress != nil {
		outer := opt.Progress
		c.Progress = func(p Progress) {
			p.Level = level
			outer(p)
		}
	}
	return c
}

// scaledSkip rescales the paper's K-factor net-skip threshold for a
// coarser level: λ outside pins there stand for ~λ·ratio fine pins,
// so the "this net's contribution is negligible" cutoff shrinks with
// the same ratio. Aggregation inflates coarse cell degrees, and
// without this the skipped-net walks dominate coarse-level work.
func scaledSkip(skip int, ratio float64) int {
	if skip <= 0 {
		return skip
	}
	s := int(float64(skip) / ratio)
	if s < 4 {
		s = 4
	}
	return s
}

// mlCand is one coarse-level winner being carried down the hierarchy.
type mlCand struct {
	members []netlist.CellID // at the level currently being processed
	rent    float64          // Rent exponent from the coarse ordering
	seed    netlist.CellID   // original coarse seed (mapped down at the end)
}

// projectDown carries pruned coarse-level winners down the hierarchy —
// expand one level at a time, boundary-refine each candidate (fanned
// out across the worker pool; candidates are independent, so the
// parallel sweep is deterministic), then rescore and globally prune at
// the original resolution. cres is the coarsest level's result and
// detectMS the wall time its detection took, for the level stats; its
// incremental breakdown carries over. run (behind Find and
// FindIncremental) is the only caller; Elapsed is left to it.
func (f *Finder) projectDown(ctx context.Context, opt *Options, ms *mlState, cres *Result, detectMS float64, runErr error) (*Result, error) {
	projStart := time.Now()
	L := ms.hier.NumLevels()
	top := ms.finders[L-1]
	levels := make([]LevelStats, 0, L)
	levels = append(levels, LevelStats{
		Level:      L - 1,
		Cells:      top.nl.NumCells(),
		Nets:       top.nl.NumNets(),
		SeedsRun:   len(cres.Seeds),
		Candidates: cres.Candidates,
		ElapsedMS:  detectMS,
	})
	var sched SchedStats
	sched.merge(*cres.Sched)

	cands := make([]mlCand, 0, len(cres.GTLs))
	for i := range cres.GTLs {
		g := &cres.GTLs[i]
		cands = append(cands, mlCand{members: g.Members, rent: g.Rent, seed: g.Seed})
	}

	// Project down level by level, boundary-refining after each
	// expansion so the group tracks the finer netlist's true contour
	// instead of the coarse quantization of it. Expansion is cheap and
	// always runs (projection must finish even when cancelled mid-way);
	// the refinement sweeps fan out by group across the pool.
	for l := L - 1; l >= 1; l-- {
		lower := ms.finders[l-1]
		lvlStart := time.Now()
		for i := range cands {
			cands[i].members = ms.hier.ExpandDown(l, cands[i].members)
		}
		var added atomic.Int64
		if opt.RefineRadius > 0 && len(cands) > 0 && ctx.Err() == nil {
			skip := scaledSkip(opt.BigNetSkip, float64(f.nl.NumCells())/float64(lower.nl.NumCells()))
			ropt := *opt
			ropt.Progress = nil // refinement has no seed schedule to report
			_, rs, _ := lower.runSeedPool(ctx, &ropt, len(cands), func(ws *workerState, i int) bool {
				set, n := ws.gr.refineBoundary(cands[i].members, opt.RefineRadius, skip, opt.Metric, cands[i].rent, lower.aG)
				cands[i].members = set.Members
				added.Add(int64(n))
				return false
			})
			sched.merge(rs)
		}
		levels = append(levels, LevelStats{
			Level:       l - 1,
			Cells:       lower.nl.NumCells(),
			Nets:        lower.nl.NumNets(),
			RefineAdded: int(added.Load()),
			ElapsedMS:   float64(time.Since(lvlStart)) / float64(time.Millisecond),
		})
	}

	// Score every candidate at the original resolution and run the
	// global Phase III pruning there, so the result's disjointness and
	// ranking semantics match a flat run's exactly.
	res := &Result{AG: f.aG, Rent: cres.Rent, Candidates: cres.Candidates, Incremental: cres.Incremental, Stages: telemetry.StageTimings{}}
	res.Seeds = append(res.Seeds, cres.Seeds...)
	for i := range res.Seeds {
		res.Seeds[i].Seed = ms.hier.RepresentativeAtFinest(L-1, res.Seeds[i].Seed)
	}
	ws := f.acquire(opt)
	cs := make([]cand, 0, len(cands))
	for i := range cands {
		set := ws.ev.Eval(cands[i].members)
		if set.Size() < opt.MinGroupSize {
			// The coarse pass runs with a ratio-scaled minimum; a group
			// that projects back below the caller's MinGroupSize is one
			// a flat run could never return — drop it here so the
			// result honors the original contract.
			continue
		}
		cs = append(cs, cand{
			set:   &set,
			score: scoreVals(set.Cut, set.Size(), set.Pins, cands[i].rent, f.aG, opt.Metric),
			rent:  cands[i].rent,
			seed:  ms.hier.RepresentativeAtFinest(L-1, cands[i].seed),
		})
	}
	f.release(ws)
	pruneStart := time.Now()
	f.prune(opt, cs, res)
	res.Stages.Add(StagePrune, time.Since(pruneStart))
	// The coarse run's own per-seed phases fold in flat; coarse_detect
	// and project are per-run wall times (the former overlaps the
	// coarse phases, the latter overlaps the final prune).
	res.Stages.Merge(cres.Stages)
	res.Stages.Add(StageCoarseDetect, time.Duration(detectMS*float64(time.Millisecond)))
	res.Stages.Add(StageProject, time.Since(projStart))
	res.Levels = levels
	res.Sched = &sched
	if runErr == nil && ctx.Err() != nil {
		runErr = fmt.Errorf("core: multilevel run cancelled during projection: %w", ctx.Err())
	}
	return res, runErr
}

// scoreVals evaluates Φ from raw cut/size/pin totals.
func scoreVals(cut, size, pins int, rent, aG float64, m Metric) float64 {
	switch m {
	case MetricNGTLS:
		return metrics.NGTLScore(cut, size, rent, aG)
	default:
		return metrics.GTLSD(cut, size, pins, rent, aG)
	}
}

// refineBoundary runs the bounded boundary-refinement pass for one
// projected candidate: up to `rounds` sweeps over the group's
// frontier (outside cells on cut nets), greedily absorbing every cell
// whose addition improves Φ, stopping early when a sweep absorbs
// nothing. skip is the K-factor cutoff: cut nets with at least that
// many outside pins contribute no frontier (0 disables), mirroring
// Phase I's BigNetSkip — a clock net's 50K pins are not boundary
// candidates, and walking them per sweep would dominate the pass. It
// reports the refined set and how many cells were absorbed. The sweep
// reuses the grower's tracker and mark arrays and visits every
// incident net once per sweep (via the tracker's touched-net list),
// so a sweep is O(touched nets + frontier pins).
func (g *grower) refineBoundary(members []netlist.CellID, rounds, skip int, m Metric, rent, aG float64) (group.Set, int) {
	g.reset()
	t := g.tracker
	for _, c := range members {
		if !t.Has(int(c)) {
			t.Add(c)
		}
	}
	cur := scoreVals(t.Cut(), t.Size(), t.Pins(), rent, aG, m)
	added := 0
	var frontier []netlist.CellID
	for r := 0; r < rounds; r++ {
		// Enumerate the frontier once per sweep — each touched net
		// exactly once, using a fresh epoch stamp to dedupe; bumping
		// the epoch afterwards is what "clears" the marks, so the
		// grower stays reusable without a walk.
		g.bumpEpoch()
		frontier = frontier[:0]
		for _, e := range t.TouchedNets() {
			p := t.NetPinsIn(e)
			lambda := g.nl.NetSize(e) - p
			if p == 0 || lambda == 0 {
				continue // untouched or fully internal: no frontier
			}
			if skip > 0 && lambda >= skip {
				continue // K-factor: huge cut nets carry no boundary signal
			}
			for _, w := range g.nl.NetPins(e) {
				if t.Has(int(w)) || g.front[w].stamp&epochMask == g.epoch {
					continue
				}
				g.front[w].stamp = g.epoch
				frontier = append(frontier, w)
			}
		}
		slices.Sort(frontier)
		grew := 0
		for _, c := range frontier {
			dcut := t.DeltaCut(c)
			deg := g.nl.CellDegree(c)
			if ns := scoreVals(t.Cut()+dcut, t.Size()+1, t.Pins()+deg, rent, aG, m); ns < cur {
				t.Add(c)
				cur = ns
				grew++
			}
		}
		added += grew
		if grew == 0 {
			break
		}
	}
	return t.Snapshot(), added
}
