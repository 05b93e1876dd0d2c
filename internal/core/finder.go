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
	// so they can exceed Elapsed when Workers > 1. "grow" covers each
	// seed's growth with its Rent exponent (and, recording, its
	// capture), "score" curve scoring and extraction, and "recombine"
	// refinement through recombination. An incremental run adds a
	// replayed seed's wall time to "replay" and a re-grown seed's to
	// "reseed"; a replay re-scored under a new A(G) also lands its
	// phases in grow, score and recombine, as a re-grown seed does.
	// "prune" is the global pruning pass, and multilevel runs add
	// "coarse_detect" (the coarse detection's wall time, which
	// overlaps its own per-seed phases) and "project" (the
	// projection/refinement descent). Always non-nil on a completed
	// run. Purely diagnostic — timing never affects detection results.
	Stages telemetry.StageTimings
}

// IncrStats is the work breakdown of one FindIncremental run. It is
// JSON-tagged so serving layers can return it on the wire verbatim.
type IncrStats struct {
	// DirtyCells is the size of the delta's dirty set as handed in.
	DirtyCells int `json:"dirty_cells"`
	// ReseededCells is the size of the dirty region on the level the
	// seeds ran on (the coarse diff on a multilevel run) — the cells
	// whose neighborhoods were re-detected.
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
// netlist or need cancellation or progress reporting should construct
// a Finder directly.
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

// seedOut is the outcome of Phases I–III (refinement, not pruning) for
// one executed (owner) seed, grown or replayed.
type seedOut struct {
	idx      int // seed index in the run's schedule
	trace    SeedTrace
	cand     *group.Set // refined candidate B̂ (nil if none)
	score    float64
	rent     float64
	replayed bool // answered from a recorded seed instead of grown
}

// seedPipe is one seed's pass through Phases I–III on a worker: the
// worker's grower and evaluator, the run's options and A(G), and where
// the seed's growths come from and go to. growFrom is the one place a
// growth is produced, so a grown and a replayed seed run the same
// extraction, refinement and recombination code.
type seedPipe struct {
	gr  *grower
	ev  *group.Evaluator
	opt *Options
	aG  float64
	// rec captures every live growth for later replay; nil when the
	// run does not record.
	rec *seedRecord
	// from is the recording being replayed; nil when growing live.
	from *seedRecord
}

// growFrom returns growth k of the seed — 0 is the seed's own, k > 0
// the refinement re-growth k — started from cell s, with the
// ordering's structural Rent exponent. Growing live, it grows and, when
// recording, captures the growth and its read set into p.rec. Replaying,
// it returns recorded growth k if that growth started from s (the
// record's clean footprint makes it exactly what a live growth would
// produce) and otherwise reports divergence with ok false. The
// returned ordering stays valid until the next growFrom call.
func (p *seedPipe) growFrom(s netlist.CellID, k int) (ord *OrderingStats, rent float64, ok bool) {
	if p.from != nil {
		if k < len(p.from.grows) && p.from.grows[k].start == s {
			g := &p.from.grows[k]
			return &g.ord, g.rent, true
		}
		return nil, 0, false
	}
	ord = p.gr.grow(s, p.opt.MaxOrderLen)
	rent = averageRent(p.gr.nl, ord)
	if p.rec != nil {
		p.rec.markFootprint(p.gr)
		p.rec.grows = append(p.rec.grows, growth{start: s, ord: ord.clone(), rent: rent})
	}
	return ord, rent, true
}

// score evaluates the Phase II curve of one ordering into the grower's
// reusable buffer, valid until the next score call.
func (p *seedPipe) score(ord *OrderingStats, rent float64) *Curve {
	scoreCurveWithRent(&p.gr.curve, p.gr.nl, ord, rent, p.opt.Metric, p.aG)
	return &p.gr.curve
}

// runSeed executes Phases I–III (refinement, not pruning) for one
// seed. ok is false only when a replay diverges from its recording;
// a live run always completes. Recording never changes the outcome.
func (p *seedPipe) runSeed(rng *ds.RNG, seed netlist.CellID) (out seedOut, ok bool) {
	gr := p.gr
	t := clock()
	ord, rent, ok := p.growFrom(seed, 0)
	if !ok {
		return out, false
	}
	// Grow covers the growth, its Rent exponent and a recording's
	// capture; score covers curve scoring and extraction; recombine
	// runs from here through refinement.
	t = gr.stamp(phaseGrow, t)
	ex := extract(p.score(ord, rent), p.opt)
	t = gr.stamp(phaseScore, t)
	out.trace = SeedTrace{Seed: seed, OrderLen: ord.Len()}
	if !ex.ok {
		return out, true
	}
	out.trace.Extracted = true
	out.trace.Size = ex.size
	out.trace.Score = ex.score
	out.rent = ex.rent

	base := p.ev.Eval(ord.Prefix(ex.size))
	if !p.opt.Refine {
		out.cand, out.score = &base, ex.score
		gr.stamp(phaseRecombine, t)
		return out, true
	}
	// Refinement's internal re-growths and re-scores are attributed to
	// recombine wholesale: they exist to feed the recombination family.
	out.cand, out.score, ok = p.refine(rng, base, ex)
	gr.stamp(phaseRecombine, t)
	return out, ok
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
// for the best-scoring set (the paper's "genetic" recombination). ok
// is false when a replayed re-growth diverges from its recording.
func (p *seedPipe) refine(rng *ds.RNG, base group.Set, ex extraction) (*group.Set, float64, bool) {
	family := []group.Set{base}
	for r := 0; r < p.opt.RefineSeeds && base.Size() > 0; r++ {
		s := base.Members[rng.Intn(base.Size())]
		ord, rent, ok := p.growFrom(s, r+1)
		if !ok {
			return nil, 0, false
		}
		ex2 := extract(p.score(ord, rent), p.opt)
		if !ex2.ok {
			continue
		}
		family = append(family, p.ev.Eval(ord.Prefix(ex2.size)))
	}
	set, score := recombine(p.ev, &p.gr.combo, family, ex, p.opt, p.aG)
	return set, score, true
}

// recombine is the tail of Phase III (paper steps III.6–III.12) over
// an assembled family whose first entry is the base candidate:
// pairwise union/intersection/difference closure, best score wins.
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
// The ordering carries each prefix's cut; ScoreCurve(nl, ...) derives
// the prefixes' pin totals from nl's cell degrees.
func GrowOrdering(nl *netlist.Netlist, seed netlist.CellID, maxLen int, opt Options) *OrderingStats {
	gr := newGrower(nl)
	gr.opt = &opt
	return gr.grow(seed, maxLen)
}
