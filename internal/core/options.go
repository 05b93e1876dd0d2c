// Package core implements the paper's contribution: the
// TangledLogicFinder, a three-phase randomized algorithm that detects
// groups of tangled logic (GTLs) in a synthesized netlist.
//
//   - Phase I grows a linear ordering of cells from a random seed,
//     always taking the frontier cell with the strongest connection
//     weight Σ 1/(λ(e)+1) to the group, ties broken by minimum net cut.
//   - Phase II scores every prefix of the ordering with the Rent-based
//     GTL metrics and extracts the prefix at a clear interior minimum
//     as a candidate GTL.
//   - Phase III re-seeds from inside each candidate, combines the
//     resulting sets with union/intersection/difference operations,
//     keeps the best-scoring combination, and finally prunes
//     overlapping inferior candidates to yield a disjoint set of GTLs.
//
// All seeds run in parallel (the paper used 8 pthreads; we use a
// goroutine worker pool) and the run is deterministic for a fixed
// Options.RandSeed regardless of scheduling.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"

	"tanglefind/internal/netlist"
)

// Metric selects the score Φ that drives candidate extraction,
// refinement and pruning.
type Metric int

const (
	// MetricGTLSD uses the density-aware GTL-Score (the paper's final
	// metric; its minima contrast most sharply, per Figure 3).
	MetricGTLSD Metric = iota
	// MetricNGTLS uses the normalized GTL-Score.
	MetricNGTLS
)

// String returns the metric's paper name.
func (m Metric) String() string {
	switch m {
	case MetricGTLSD:
		return "GTL-SD"
	case MetricNGTLS:
		return "nGTL-S"
	}
	return "unknown"
}

// ParseMetric maps a metric name — the CLI/JSON form ("gtlsd",
// "ngtls") or the paper form ("GTL-SD", "nGTL-S") — to its constant.
func ParseMetric(s string) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "gtlsd", "gtl-sd":
		return MetricGTLSD, nil
	case "ngtls", "ngtl-s":
		return MetricNGTLS, nil
	}
	return 0, fmt.Errorf("core: unknown metric %q (want gtlsd or ngtls)", s)
}

// jsonName is the wire form of the metric (matches the CLI flags).
func (m Metric) jsonName() string {
	if m == MetricNGTLS {
		return "ngtls"
	}
	return "gtlsd"
}

// MarshalJSON encodes the metric as its wire name.
func (m Metric) MarshalJSON() ([]byte, error) { return json.Marshal(m.jsonName()) }

// UnmarshalJSON accepts a metric name (or a bare constant for
// compatibility with naive encoders).
func (m *Metric) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n int
		if json.Unmarshal(b, &n) == nil && (n == int(MetricGTLSD) || n == int(MetricNGTLS)) {
			*m = Metric(n)
			return nil
		}
		return fmt.Errorf("core: metric must be a string: %w", err)
	}
	v, err := ParseMetric(s)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Ordering selects the Phase I growth rule; variants other than
// OrderWeighted exist for the ablation benchmarks.
type Ordering int

const (
	// OrderWeighted is the paper's rule: maximize Σ 1/(λ(e)+1), break
	// ties by minimum cut delta.
	OrderWeighted Ordering = iota
	// OrderMinCut greedily minimizes the net cut alone — the
	// alternative the paper argues against in §3.2.1.
	OrderMinCut
	// OrderBFS adds frontier cells in breadth-first discovery order, a
	// connectivity-blind baseline.
	OrderBFS
)

// String names the ordering rule.
func (o Ordering) String() string {
	switch o {
	case OrderWeighted:
		return "weighted"
	case OrderMinCut:
		return "mincut"
	case OrderBFS:
		return "bfs"
	}
	return "unknown"
}

// ParseOrdering maps an ordering name to its constant.
func ParseOrdering(s string) (Ordering, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "weighted":
		return OrderWeighted, nil
	case "mincut":
		return OrderMinCut, nil
	case "bfs":
		return OrderBFS, nil
	}
	return 0, fmt.Errorf("core: unknown ordering %q (want weighted, mincut or bfs)", s)
}

// MarshalJSON encodes the ordering as its name.
func (o Ordering) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON accepts an ordering name (or a bare constant).
func (o *Ordering) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		var n int
		if json.Unmarshal(b, &n) == nil && n >= int(OrderWeighted) && n <= int(OrderBFS) {
			*o = Ordering(n)
			return nil
		}
		return fmt.Errorf("core: ordering must be a string: %w", err)
	}
	v, err := ParseOrdering(s)
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// Options configures a finder run. The zero value is not valid; start
// from DefaultOptions.
//
// Options is JSON-round-trippable: every field that affects results
// carries a struct tag (Metric and Ordering serialize as their names),
// and ParseOptions turns a JSON document into validated Options with
// unspecified fields at their defaults. Progress is a callback and is
// never serialized. Three fields are run controls that never change
// results — Workers, Progress and RecordIncremental — and Key is the
// run's compute identity without them.
type Options struct {
	// Seeds is m, the number of random starting cells (paper: 100).
	Seeds int `json:"seeds"`
	// MaxOrderLen is Z, the cap on each linear ordering's length
	// (paper: 100K). A cap of |V| or more runs at max(⌊|V|/2⌋, 2), so
	// an ordering always leaves Phase II an exterior; Key keeps the
	// value as given.
	MaxOrderLen int `json:"max_order_len"`
	// Metric is Φ, the score driving extraction and pruning.
	Metric Metric `json:"metric"`
	// Ordering is the Phase I growth rule (OrderWeighted = paper).
	Ordering Ordering `json:"ordering"`
	// MinGroupSize is the smallest prefix considered in Phase II; the
	// paper does "not care about tiny clusters with a handful of
	// cells".
	MinGroupSize int `json:"min_group_size"`
	// AcceptThreshold is the largest Φ value a candidate minimum may
	// have. Average-quality groups score ≈ 1, strong GTLs « 1.
	AcceptThreshold float64 `json:"accept_threshold"`
	// DipRatio qualifies a "clear minimum": the minimum must be at
	// most DipRatio times the curve value at both ends of the search
	// window, rejecting monotone curves from seeds outside any GTL.
	DipRatio float64 `json:"dip_ratio"`
	// BigNetSkip is the λ(e) threshold above which Phase I skips
	// connection-weight updates for a net (paper: 20).
	BigNetSkip int `json:"big_net_skip"`
	// RefineSeeds is the number of interior re-seeds per candidate in
	// Phase III (paper: 3). Only read when Refine is on.
	RefineSeeds int `json:"refine_seeds"`
	// PruneOverlapTolerance is the fraction of a candidate's cells
	// allowed to collide with already-accepted GTLs during final
	// pruning; colliding cells are trimmed and the remainder kept.
	// Candidate growth can absorb a few "junction" cells that sit on
	// the boundary nets of two structures, and pruning on any
	// single-cell overlap would then discard a whole structure — the
	// paper notes a few extra cells are negligible (§5.1.1).
	PruneOverlapTolerance float64 `json:"prune_overlap_tolerance"`
	// Refine disables Phase III when false (ablation).
	Refine bool `json:"refine"`
	// Levels selects the multilevel pipeline depth: the netlist is
	// coarsened Levels-1 times by heavy-edge matching, seeds grow on
	// the coarsest level, and winning groups are projected down and
	// boundary-refined at each finer level. Levels <= 1 runs the
	// classic flat pipeline (bit-identical to pre-multilevel results).
	// The hierarchy may come out shallower than requested when
	// coarsening hits MinCoarseCells or stops making progress.
	Levels int `json:"levels"`
	// MinCoarseCells stops coarsening once a level has at most this
	// many cells, so detection always has enough exterior to contrast
	// candidates against (0 means netlist.DefaultMinCoarseCells).
	// Only read when Levels > 1.
	MinCoarseCells int `json:"min_coarse_cells"`
	// RefineRadius bounds the boundary-refinement sweeps per level
	// after projection: each sweep scans the projected group's
	// frontier once and greedily absorbs score-improving cells. 0
	// projects without refinement (fastest, coarsest boundaries).
	// Only read when Levels > 1.
	RefineRadius int `json:"refine_radius"`
	// RecordIncremental makes a run, flat or multilevel, retain
	// per-seed structural state (orderings, score-curve inputs, read
	// footprints) on the Result so a later FindIncremental can reuse
	// clean seeds. It never changes results; it costs O(Seeds ×
	// MaxOrderLen) memory on the returned Result.
	RecordIncremental bool `json:"record_incremental,omitempty"`
	// Workers caps the goroutine pool; <= 0 means GOMAXPROCS. Workers
	// never changes results, only scheduling.
	Workers int `json:"workers,omitempty"`
	// RandSeed makes the whole run reproducible.
	RandSeed uint64 `json:"rand_seed"`
	// Progress, when non-nil, receives engine progress snapshots after
	// every completed seed. It has no effect on results. Calls are
	// serialized but may come from any worker goroutine; keep it fast.
	Progress ProgressFunc `json:"-"`
}

// DefaultOptions returns the paper's parameter settings.
func DefaultOptions() Options {
	return Options{
		Seeds:                 100,
		MaxOrderLen:           100_000,
		Metric:                MetricGTLSD,
		Ordering:              OrderWeighted,
		MinGroupSize:          24,
		AcceptThreshold:       0.8,
		DipRatio:              0.75,
		BigNetSkip:            20,
		RefineSeeds:           3,
		Refine:                true,
		PruneOverlapTolerance: 0.02,
		Levels:                1,
		MinCoarseCells:        0, // netlist.DefaultMinCoarseCells
		RefineRadius:          2,
		Workers:               0,
		RandSeed:              1,
	}
}

// Key is the options' compute identity: the JSON of what the chosen
// pipeline reads. Two runs with equal keys compute identical results on
// identical netlists, so it is the one identity the engine's replay
// check, its hierarchy cache and every serving cache key on. The run
// controls (Workers, Progress, RecordIncremental) are dropped, and the
// fields a pipeline provably never reads take one value: a flat run
// (Levels <= 1) keys as Levels 1 with MinCoarseCells and RefineRadius
// zeroed, a multilevel run keys MinCoarseCells 0 as
// netlist.DefaultMinCoarseCells, and Refine false zeroes RefineSeeds.
// Nothing data-dependent is folded: a MaxOrderLen past the netlist size
// keys as written.
func (o Options) Key() string {
	data, err := json.Marshal(o.canonical())
	if err != nil {
		// Options is a plain tagged struct; this cannot fail, but never
		// let two different configurations collapse onto one key.
		return fmt.Sprintf("unmarshalable:%+v", o)
	}
	return string(data)
}

// canonical is o as Key sees it (see Key).
func (o Options) canonical() Options {
	o.Workers, o.Progress, o.RecordIncremental = 0, nil, false
	if o.Levels <= 1 {
		o.Levels, o.MinCoarseCells, o.RefineRadius = 1, 0, 0
	} else if o.MinCoarseCells == 0 {
		o.MinCoarseCells = netlist.DefaultMinCoarseCells
	}
	if !o.Refine {
		o.RefineSeeds = 0
	}
	return o
}

// ParseOptions decodes a JSON document into Options. Fields absent
// from the document keep their DefaultOptions values, unknown fields
// are rejected (catching typos that would silently fall back to a
// default), and the result is validated — so API layers can hand the
// returned Options straight to the engine. An empty or all-whitespace
// document yields DefaultOptions.
func ParseOptions(data []byte) (Options, error) {
	opt := DefaultOptions()
	if len(bytes.TrimSpace(data)) == 0 {
		return opt, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opt); err != nil {
		return Options{}, fmt.Errorf("core: parse options: %w", err)
	}
	if dec.More() {
		return Options{}, fmt.Errorf("core: parse options: trailing data after JSON document")
	}
	if err := opt.validate(); err != nil {
		return Options{}, err
	}
	return opt, nil
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maxSeeds and maxRefineSeeds bound the seed counts validate accepts.
// Both arrive over the wire, and work grows with them: the seed plan
// allocates per seed, and each re-seed adds a growth and a kept set to
// a closure quadratic in the kept sets. Unbounded, one request could
// exhaust the server's memory.
const (
	maxSeeds       = 1 << 20
	maxRefineSeeds = 64
)

// validate is the single place options are sanity-checked; every engine
// entry point calls it before touching the netlist. Workers needs no
// check (<= 0 means GOMAXPROCS) and Progress is free-form.
func (o *Options) validate() error {
	switch {
	case o.Seeds <= 0 || o.Seeds > maxSeeds:
		return fmt.Errorf("core: Seeds must be in [1,%d], got %d", maxSeeds, o.Seeds)
	case o.MaxOrderLen < 2:
		return fmt.Errorf("core: MaxOrderLen must be at least 2, got %d", o.MaxOrderLen)
	case o.MinGroupSize < 0:
		return fmt.Errorf("core: MinGroupSize must be non-negative, got %d", o.MinGroupSize)
	case o.AcceptThreshold <= 0:
		return fmt.Errorf("core: AcceptThreshold must be positive, got %g", o.AcceptThreshold)
	case o.DipRatio <= 0:
		return fmt.Errorf("core: DipRatio must be positive, got %g", o.DipRatio)
	case o.BigNetSkip < 0:
		return fmt.Errorf("core: BigNetSkip must be non-negative (0 disables), got %d", o.BigNetSkip)
	case o.RefineSeeds < 0 || o.RefineSeeds > maxRefineSeeds:
		return fmt.Errorf("core: RefineSeeds must be in [0,%d], got %d", maxRefineSeeds, o.RefineSeeds)
	case o.PruneOverlapTolerance < 0:
		return fmt.Errorf("core: PruneOverlapTolerance must be non-negative, got %g", o.PruneOverlapTolerance)
	case o.Levels < 0 || o.Levels > 16:
		return fmt.Errorf("core: Levels must be in [0,16] (0 and 1 both mean flat), got %d", o.Levels)
	case o.MinCoarseCells < 0:
		return fmt.Errorf("core: MinCoarseCells must be non-negative (0 means the default floor), got %d", o.MinCoarseCells)
	case o.RefineRadius < 0:
		return fmt.Errorf("core: RefineRadius must be non-negative (0 disables boundary refinement), got %d", o.RefineRadius)
	}
	return nil
}
