package core

import (
	"context"
	"slices"
	"time"

	"tanglefind/internal/ds"
	"tanglefind/internal/group"
	"tanglefind/internal/netlist"
	"tanglefind/internal/telemetry"
)

// GTL is one detected group of tangled logic.
type GTL struct {
	Members []netlist.CellID
	Cut     int     // T(C)
	Pins    int     // Σ deg(c), so A_C = Pins/len(Members)
	Score   float64 // Φ under Options.Metric
	NGTLS   float64 // normalized GTL-Score
	GTLSD   float64 // density-aware GTL-Score
	Rent    float64 // Rent exponent used for the scores
	Seed    netlist.CellID
}

// Size returns |C|.
func (g *GTL) Size() int { return len(g.Members) }

// SeedTrace records what one Phase I/II seed produced; used by the
// figure generators and by tests probing intermediate behavior.
type SeedTrace struct {
	Seed      netlist.CellID
	OrderLen  int
	Extracted bool
	Size      int
	Score     float64
	Curve     *Curve // only when Options.KeepCurves
}

// Result is the outcome of one finder run.
type Result struct {
	GTLs       []GTL // disjoint, sorted best (smallest Φ) first
	Candidates int   // refined candidates before pruning
	Seeds      []SeedTrace
	Elapsed    time.Duration
	Rent       float64 // mean Rent exponent across successful seeds
	AG         float64
	// Levels is the per-level breakdown of a multilevel run (nil for
	// flat runs): coarsest first, finishing at the original netlist.
	Levels []LevelStats
	// Sched describes how the run's seed schedule was executed across
	// workers (resolved worker count, per-worker seed counts and busy
	// time). Scheduling never affects the detection output — results
	// are bit-identical to Workers=1 — so Sched is purely diagnostic.
	Sched *SchedStats
	// Incremental is the reuse breakdown of a FindIncremental run
	// (nil for plain runs).
	Incremental *IncrStats
	// IncrState is the recorded per-seed structural state of a
	// completed run made with Options.RecordIncremental (flat or
	// multilevel); FindIncremental consumes it as the previous run. It
	// is in-memory only (never serialized) and can be sizable —
	// O(Seeds × MaxOrderLen).
	IncrState *IncrementalState
	// Stages is the run's flat per-stage wall-time breakdown. The
	// per-seed phases ("grow", "score", "recombine", and the
	// incremental "replay"/"reseed" split) are summed across workers,
	// so they can exceed Elapsed when Workers > 1; "prune" is the
	// global pruning pass, and multilevel runs add "coarse_detect"
	// (the coarse detection's wall time, which overlaps its own
	// per-seed phases) and "project" (the projection/refinement
	// descent). Always non-nil on a completed run. Purely diagnostic —
	// timing never affects detection results.
	Stages telemetry.StageTimings
}

// IncrStats is the work breakdown of one FindIncremental run. It is
// JSON-tagged so serving layers can return it on the wire verbatim.
type IncrStats struct {
	// DirtyCells is the size of the delta's dirty set as handed in.
	DirtyCells int `json:"dirty_cells"`
	// ReseededCells is the size of the dirty region after DirtyRadius
	// expansion — the cells whose neighborhoods were re-detected.
	ReseededCells int `json:"reseeded_cells"`
	// ReusedSeeds counts seeds answered by replaying recorded state.
	ReusedSeeds int `json:"reused_seeds"`
	// RerunSeeds counts seeds that re-ran the growth pipeline.
	RerunSeeds int `json:"rerun_seeds"`
	// ReusedGroups counts reported GTLs whose candidate came from a
	// replayed seed.
	ReusedGroups int `json:"reused_groups"`
	// FullFallback marks a run that abandoned reuse entirely;
	// FallbackReason says why.
	FullFallback   bool   `json:"full_fallback,omitempty"`
	FallbackReason string `json:"fallback_reason,omitempty"`
}

// Find runs the TangledLogicFinder over nl with the given options and
// returns the disjoint set of detected GTLs. The run is deterministic
// for a fixed Options.RandSeed.
//
// Find is a compatibility wrapper: it builds a fresh Finder engine and
// discards it after one run. Callers that run repeatedly over the same
// netlist, need cancellation, progress reporting or sharded execution
// should construct a Finder directly.
//
// One deliberate difference from the historical implementation: when
// Seeds exceeds the cell count, seed strata collapse onto duplicate
// cells, and the engine now runs each unique seed once instead of
// re-running identical seeds (duplicates inherit the first
// occurrence's trace and candidate). Results are unchanged whenever
// the schedule is duplicate-free — the common case.
func Find(nl *netlist.Netlist, opt Options) (*Result, error) {
	f, err := NewFinder(nl)
	if err != nil {
		return nil, err
	}
	return f.Find(context.Background(), opt)
}

// seedOut is the outcome of Phases I-III (refinement, not pruning) for
// one seed.
type seedOut struct {
	trace     SeedTrace
	candidate *group.Set // refined candidate B̂ (nil if none)
	score     float64
	rent      float64
}

// runSeed executes Phases I–III (refinement, not pruning) for one
// seed. When rec is non-nil it also captures the seed's structural
// state — orderings, score-curve inputs and the exact read footprint —
// for later incremental replay; capture never changes the outcome.
func runSeed(nl *netlist.Netlist, gr *grower, ev *group.Evaluator, rng *ds.RNG, seed netlist.CellID, opt *Options, aG float64, rec *seedRecord) (out seedOut) {
	t := clock()
	ord := gr.grow(seed, opt.MaxOrderLen)
	t = gr.stamp(phaseGrow, t)
	curve := gr.scoreCurve(ord, opt.Metric, aG, opt.KeepCurves)
	if rec != nil {
		rec.seed = seed
		rec.foot = ds.NewBitset(nl.NumCells())
		rec.markFootprint(gr)
		rec.aG = aG
		rec.ord = copyOrdRecord(ord, curve.Rent)
	}
	ex := extract(curve, opt)
	// Score covers curve scoring, extraction and the incremental
	// footprint capture above; recombine starts here and runs through
	// refinement.
	t = gr.stamp(phaseScore, t)
	if rec != nil {
		rec.extracted = ex.ok
		rec.size = ex.size
		rec.score = ex.score
	}
	out.trace = SeedTrace{Seed: seed, OrderLen: ord.Len()}
	if opt.KeepCurves {
		out.trace.Curve = curve
	}
	if !ex.ok {
		return out
	}
	out.trace.Extracted = true
	out.trace.Size = ex.size
	out.trace.Score = ex.score

	base := ev.Eval(ord.Prefix(ex.size))
	if !opt.Refine {
		out.candidate = &base
		out.score = ex.score
		out.rent = ex.rent
		gr.stamp(phaseRecombine, t)
		return out
	}
	// Refinement's internal re-growths and re-scores are attributed to
	// recombine wholesale: they exist to feed the recombination family.
	refined, score := refine(gr, ev, rng, base, ex, opt, aG, rec)
	out.candidate = refined
	out.score = score
	out.rent = ex.rent
	gr.stamp(phaseRecombine, t)
	return out
}

// comboScratch is the reusable arena of Phase III recombination: one
// sorted view per family member plus merge and best-so-far buffers.
// Pooled with the grower, it makes steady-state recombination allocate
// only for the winning set — the old path re-sorted every family
// member once per pairing and allocated every combo it evaluated.
type comboScratch struct {
	sorted [][]netlist.CellID
	buf    []netlist.CellID
	best   []netlist.CellID
}

// sortFamily refreshes the arena's sorted views for one family.
func (sc *comboScratch) sortFamily(family []group.Set) [][]netlist.CellID {
	for len(sc.sorted) < len(family) {
		sc.sorted = append(sc.sorted, nil)
	}
	views := sc.sorted[:len(family)]
	for i := range family {
		views[i] = append(views[i][:0], family[i].Members...)
		slices.Sort(views[i])
	}
	return views
}

// refine implements Phase III for one candidate B: re-grow from
// RefineSeeds random interior cells, then search the closure of the
// resulting family under pairwise union, intersection and difference
// for the best-scoring set (the paper's "genetic" recombination).
func refine(gr *grower, ev *group.Evaluator, rng *ds.RNG, base group.Set, ex extraction, opt *Options, aG float64, rec *seedRecord) (*group.Set, float64) {
	family := []group.Set{base}
	for r := 0; r < opt.RefineSeeds && base.Size() > 0; r++ {
		s := base.Members[rng.Intn(base.Size())]
		ord := gr.grow(s, opt.MaxOrderLen)
		curve := gr.scoreCurve(ord, opt.Metric, aG, false)
		ex2 := extract(curve, opt)
		if rec != nil {
			rec.markFootprint(gr)
			rec.refine = append(rec.refine, refineRecord{
				seed: s, ord: copyOrdRecord(ord, curve.Rent),
				extracted: ex2.ok, size: ex2.size,
			})
		}
		if !ex2.ok {
			continue
		}
		family = append(family, ev.Eval(ord.Prefix(ex2.size)))
	}
	return recombine(ev, &gr.combo, family, ex, opt, aG)
}

// recombine is the shared tail of Phase III (paper steps III.6–III.12)
// over an assembled family whose first entry is the base candidate:
// pairwise union/intersection/difference closure, best score wins.
// Both the live pipeline (refine) and incremental replay feed it, so
// replayed seeds recombine exactly as a full run would.
//
// Combos are streamed through the arena in the same order the closure
// has always enumerated them (union, intersection, both differences,
// per ascending pair) and scored with Evaluator.Tally, so the
// selection — including strict-improvement tie behavior — is
// bit-identical to the allocating path it replaced; only the winner's
// members are materialized. a − (a∩b) is computed directly as a − b,
// which is the same set.
func recombine(ev *group.Evaluator, sc *comboScratch, family []group.Set, ex extraction, opt *Options, aG float64) (*group.Set, float64) {
	base := family[0]
	best := base
	bestScore := score(&base, ex.rent, aG, opt.Metric)
	for i := range family[1:] {
		f := &family[1+i]
		if f.Size() < opt.MinGroupSize {
			continue
		}
		if v := score(f, ex.rent, aG, opt.Metric); v < bestScore {
			best, bestScore = *f, v
		}
	}
	views := sc.sortFamily(family)
	comboWon := false
	var comboCut, comboPins int
	for i := 0; i < len(family); i++ {
		for j := i + 1; j < len(family); j++ {
			a, b := views[i], views[j]
			for op := 0; op < 4; op++ {
				sc.buf = sc.buf[:0]
				switch op {
				case 0:
					sc.buf = group.MergeUnion(sc.buf, a, b)
				case 1:
					sc.buf = group.MergeIntersect(sc.buf, a, b)
				case 2:
					sc.buf = group.MergeDifference(sc.buf, a, b)
				case 3:
					sc.buf = group.MergeDifference(sc.buf, b, a)
				}
				if len(sc.buf) < opt.MinGroupSize {
					continue
				}
				cut, pins := ev.Tally(sc.buf)
				if v := scoreVals(cut, len(sc.buf), pins, ex.rent, aG, opt.Metric); v < bestScore {
					bestScore = v
					comboWon = true
					comboCut, comboPins = cut, pins
					sc.best = append(sc.best[:0], sc.buf...)
				}
			}
		}
	}
	if comboWon {
		return &group.Set{
			Members: append([]netlist.CellID(nil), sc.best...),
			Cut:     comboCut,
			Pins:    comboPins,
		}, bestScore
	}
	return &best, bestScore
}

// score evaluates Φ for an arbitrary set under the chosen metric.
func score(s *group.Set, rent, aG float64, m Metric) float64 {
	return scoreVals(s.Cut, s.Size(), s.Pins, rent, aG, m)
}

// GrowOrdering exposes Phase I for one seed — the building block the
// figure generators (Figures 2, 3, 5) use to plot raw score curves.
func GrowOrdering(nl *netlist.Netlist, seed netlist.CellID, maxLen int, opt Options) *OrderingStats {
	gr := newGrower(nl)
	gr.opt = &opt
	return gr.grow(seed, maxLen)
}
