// Package tanglefind detects tangled logic structures (GTLs) in VLSI
// netlists, reproducing "Detecting Tangled Logic Structures in VLSI
// Netlists" (Jindal, Alpert, Hu, Li, Nam, Winn — DAC 2010).
//
// A GTL is a large group of cells (hundreds to thousands) with far more
// internal than external connectivity — dissolved ROMs, dense MUX
// farms, datapath blobs. Placers pull such groups into tight clumps
// that become routing hotspots; identifying them before placement
// enables cell inflation, soft-block floorplanning or resynthesis.
//
// The package is a facade over the implementation in internal/…; it
// re-exports everything a downstream user needs:
//
//   - netlist modeling (Netlist, Builder) and Bookshelf/tfnet I/O
//   - the Rent's-rule-based scores (GTLScore, NGTLScore, GTLSD) plus
//     the classic baselines the paper compares against
//   - the three-phase TangledLogicFinder engine (Finder, Find,
//     FindMany, Options) with cancellation, progress and sharded runs
//   - workload generators (random graphs with planted GTLs, Rent-driven
//     hierarchical circuits, structural fragments, industrial proxy)
//   - a recursive-bisection placer, RUDY congestion estimation and the
//     cell-inflation mitigation flow
//
// Quick start:
//
//	rg, _ := tanglefind.NewRandomGraph(tanglefind.RandomGraphSpec{
//		Cells:  50_000,
//		Blocks: []tanglefind.BlockSpec{{Size: 4000}},
//		Seed:   1,
//	})
//	opt := tanglefind.DefaultOptions()
//	res, _ := tanglefind.Find(rg.Netlist, opt)
//	for _, g := range res.GTLs {
//		fmt.Printf("GTL: %d cells, cut %d, GTL-SD %.3f\n",
//			g.Size(), g.Cut, g.GTLSD)
//	}
package tanglefind

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"tanglefind/internal/core"
	"tanglefind/internal/generate"
	"tanglefind/internal/lint"
	"tanglefind/internal/netlist"
	"tanglefind/internal/place"
	"tanglefind/internal/route"
	"tanglefind/internal/telemetry"
)

// Netlist is a hypergraph of cells and nets. See Builder.
type Netlist = netlist.Netlist

// Builder incrementally assembles a Netlist.
type Builder = netlist.Builder

// CellID identifies a cell.
type CellID = netlist.CellID

// NetID identifies a net.
type NetID = netlist.NetID

// Options configures the finder; start from DefaultOptions. Options
// is JSON-round-trippable (see ParseOptions).
type Options = core.Options

// Metric selects the driving score Φ.
type Metric = core.Metric

// Ordering selects the Phase I growth rule.
type Ordering = core.Ordering

// Finder metric and ordering constants (see core documentation).
const (
	MetricGTLSD = core.MetricGTLSD
	MetricNGTLS = core.MetricNGTLS

	OrderWeighted = core.OrderWeighted
	OrderMinCut   = core.OrderMinCut
	OrderBFS      = core.OrderBFS
)

// Result is a finder run's outcome: disjoint GTLs sorted best-first.
type Result = core.Result

// GTL is one detected group of tangled logic.
type GTL = core.GTL

// Finder is the long-lived, reusable detection engine: construct once
// per netlist with NewFinder, then run it many times. Repeated runs
// reuse the engine's cached hierarchies and draw per-worker scratch
// from one process-wide pool, runs accept a context for
// cancellation/deadline, emit Options.Progress callbacks, and can be
// split into resumable shards (Finder.FindShard + Finder.Merge — both
// part of this facade via the Finder alias; no internal import
// needed).
type Finder = core.Finder

// ShardResult holds the raw outcomes of one seed-range chunk of a run;
// see Finder.FindShard and Finder.Merge.
type ShardResult = core.ShardResult

// SchedStats describes how a run's seed schedule was executed across
// workers: resolved worker count and per-worker seed counts and busy
// time (Result.Sched). Purely diagnostic — results are bit-identical
// for any worker count.
type SchedStats = core.SchedStats

// StageTimings is the flat stage-name → wall-time breakdown attached
// to every completed run (Result.Stages) and, with the jobs layer's
// queue_wait/engine/merge stamps added, to every finished job result.
// It marshals to JSON as {"stage": milliseconds}. See Result.Stages
// for the stage names and their overlap semantics.
type StageTimings = telemetry.StageTimings

// Incremental detection: netlists evolve by deltas (ECO edits), and
// Finder.FindIncremental reuses a previous run's recorded seed state
// wherever an edit provably cannot have changed the computation.
type (
	// Delta is an ECO-style edit batch: add/remove cells, reconnect
	// nets, append/remove nets, with SplitNet/MergeNets helpers.
	// Applying a delta never renumbers surviving ids.
	Delta = netlist.Delta
	// NewCell describes one appended cell in a Delta.
	NewCell = netlist.NewCell
	// NewNet describes one appended net in a Delta.
	NewNet = netlist.NewNet
	// NetEdit replaces one net's pin set in a Delta.
	NetEdit = netlist.NetEdit
	// DeltaEffect summarizes an applied delta, including the dirty
	// cell set incremental detection guards reuse against.
	DeltaEffect = netlist.DeltaEffect
	// IncrStats is the reuse breakdown of a FindIncremental run.
	IncrStats = core.IncrStats
	// IncrementalState is the recorded per-seed state a
	// RecordIncremental run attaches to its Result.
	IncrementalState = core.IncrementalState
)

// ParseDelta decodes a JSON delta document (unknown fields rejected).
func ParseDelta(data []byte) (*Delta, error) { return netlist.ParseDelta(data) }

// ReadNetlist parses a netlist from r, autodetecting the format
// (.tfb binary or .tfnet text) by content.
func ReadNetlist(r io.Reader) (*Netlist, error) { return netlist.ReadAuto(r) }

// ReadNetlistFile loads a netlist from path, autodetecting the format.
func ReadNetlistFile(path string) (*Netlist, error) { return netlist.ReadFile(path) }

// SeedTrace records what one Phase I/II seed produced: ordering
// length, whether a candidate was extracted, and its size/score.
type SeedTrace = core.SeedTrace

// Curve is one seed's per-prefix score curve (retained in SeedTrace
// when Options.KeepCurves is set).
type Curve = core.Curve

// Progress is the engine's per-seed progress snapshot. It carries JSON
// tags, so serving layers can stream snapshots verbatim. During a
// multilevel run's detection pass, Progress.Level names the coarse
// hierarchy level the seeds are growing on.
type Progress = core.Progress

// LevelStats is one level's share of a multilevel run (Result.Levels):
// size, seeds run, candidates and boundary-refinement work per level.
type LevelStats = core.LevelStats

// ProgressFunc receives Progress snapshots via Options.Progress.
type ProgressFunc = core.ProgressFunc

// DefaultOptions returns the paper's parameter settings.
func DefaultOptions() Options { return core.DefaultOptions() }

// ParseOptions decodes a JSON document into validated Options: absent
// fields keep their DefaultOptions values and unknown fields are
// rejected. This is the entry point API layers use to accept finder
// options over the wire.
func ParseOptions(data []byte) (Options, error) { return core.ParseOptions(data) }

// ParseMetric maps a metric name ("gtlsd", "ngtls", or the paper
// forms) to its constant.
func ParseMetric(s string) (Metric, error) { return core.ParseMetric(s) }

// ParseOrdering maps an ordering name ("weighted", "mincut", "bfs") to
// its constant.
func ParseOrdering(s string) (Ordering, error) { return core.ParseOrdering(s) }

// NewFinder constructs a reusable detection engine over nl.
//
// The engine keeps no per-worker scratch of its own: every engine
// draws it from one process-wide pool holding at most GOMAXPROCS idle
// worker states (PooledScratchBytes reports them), resized to whichever
// netlist the next run covers. Finder.MemoryEstimate reports what the
// engine does cache — its multilevel hierarchies — and Options.Levels
// > 1 switches runs onto the multilevel coarsen → detect → project +
// refine pipeline.
func NewFinder(nl *Netlist) (*Finder, error) { return core.NewFinder(nl) }

// PooledScratchBytes reports the retained bytes of the idle worker
// states in the process-wide engine pool shared by every Finder.
func PooledScratchBytes() int64 { return core.PooledScratchBytes() }

// Multilevel substrate: the coarsening hierarchy the Levels>1 pipeline
// runs on, exposed for callers that want to inspect or reuse coarse
// views of a netlist directly.
type (
	// Hierarchy is a pyramid of coarsened netlists with fine↔coarse
	// projection maps; level 0 is the original netlist.
	Hierarchy = netlist.Hierarchy
	// CoarsenOptions configures BuildHierarchy.
	CoarsenOptions = netlist.CoarsenOptions
)

// BuildHierarchy coarsens nl by repeated heavy-edge matching into at
// most o.Levels levels (the original included), stopping early at
// o.MinCells cells or when matching stops making progress.
func BuildHierarchy(nl *Netlist, o CoarsenOptions) (*Hierarchy, error) {
	return netlist.BuildHierarchy(nl, o)
}

// Find runs the three-phase TangledLogicFinder over nl. It is a
// one-shot convenience over NewFinder + Finder.Find.
func Find(nl *Netlist, opt Options) (*Result, error) { return core.Find(nl, opt) }

// FindMany runs the finder over a batch of netlists with shared
// options; results are positional. On cancellation the slice holds
// whatever completed alongside the error.
func FindMany(ctx context.Context, nls []*Netlist, opt Options) ([]*Result, error) {
	return core.FindMany(ctx, nls, opt)
}

// Generators.
type (
	// RandomGraphSpec configures a random hypergraph with planted GTLs.
	RandomGraphSpec = generate.RandomGraphSpec
	// BlockSpec describes one planted block.
	BlockSpec = generate.BlockSpec
	// RandomGraph bundles a generated netlist with its ground truth.
	RandomGraph = generate.RandomGraph
	// HierSpec configures a Rent-rule-driven hierarchical netlist.
	HierSpec = generate.HierSpec
	// ISPDProfile parameterizes an ISPD benchmark proxy.
	ISPDProfile = generate.ISPDProfile
	// Design is a generated circuit with ground-truth structures.
	Design = generate.Design
	// Fragment is a structural logic generator output.
	Fragment = generate.Fragment
)

// NewRandomGraph builds a Garbers-style random graph with planted GTLs.
func NewRandomGraph(spec RandomGraphSpec) (*RandomGraph, error) {
	return generate.NewRandomGraph(spec)
}

// NewHierarchical builds a Rent-rule-obeying hierarchical netlist.
func NewHierarchical(spec HierSpec) (*Netlist, error) { return generate.NewHierarchical(spec) }

// NewISPDProxy builds a proxy for one ISPD placement benchmark.
func NewISPDProxy(p ISPDProfile, scale float64, seed uint64) (*Design, error) {
	return generate.NewISPDProxy(p, scale, seed)
}

// NewIndustrialProxy builds the dissolved-ROM industrial circuit proxy.
func NewIndustrialProxy(scale float64, seed uint64) (*Design, error) {
	return generate.NewIndustrialProxy(scale, seed)
}

// ISPDProfiles lists the six Table 2 circuit profiles.
func ISPDProfiles() []ISPDProfile { return generate.ISPDProfiles }

// Placement and congestion.
type (
	// Placement maps cells to die coordinates.
	Placement = place.Placement
	// Rect is an axis-aligned region.
	Rect = place.Rect
	// PlaceOptions configures the recursive-bisection placer.
	PlaceOptions = place.Options
	// CongestionMap is a RUDY demand map over a tile grid.
	CongestionMap = route.Map
	// CongestionStats are the paper's §5.1.3 statistics.
	CongestionStats = route.Stats
)

// Place runs recursive min-cut bisection placement.
func Place(nl *Netlist, die Rect, opt PlaceOptions) (*Placement, error) {
	return place.Place(nl, die, opt)
}

// HPWL returns the placement's half-perimeter wirelength.
func HPWL(nl *Netlist, pl *Placement) float64 { return place.HPWL(nl, pl) }

// Inflate multiplies the area of the given cell groups by factor.
func Inflate(nl *Netlist, groups [][]CellID, factor float64) (*Netlist, error) {
	return place.Inflate(nl, groups, factor)
}

// EstimateCongestion builds a RUDY congestion map for a placement.
func EstimateCongestion(nl *Netlist, pl *Placement, gridW, gridH int) (*CongestionMap, error) {
	return route.Estimate(nl, pl, gridW, gridH)
}

// EstimateCongestionLRoute builds the probabilistic two-bend (L-route)
// congestion map — a second model that tracks horizontal/vertical
// track demand per tile over an MST decomposition of every net.
func EstimateCongestionLRoute(nl *Netlist, pl *Placement, gridW, gridH int) (*CongestionMap, error) {
	return route.EstimateLRoute(nl, pl, gridW, gridH)
}

// MSTWirelength returns the Manhattan minimum-spanning-tree wirelength
// of a placement (a tighter routed-length estimate than HPWL).
func MSTWirelength(nl *Netlist, pl *Placement) float64 {
	return route.MSTWirelength(nl, pl)
}

// RefinePlacement improves a placement with greedy randomized cell
// swaps (detailed placement cleanup); HPWL never increases. It returns
// the number of accepted swaps.
func RefinePlacement(nl *Netlist, pl *Placement, rounds int, seed uint64) int {
	return place.RefineGreedy(nl, pl, rounds, seed)
}

// CongestionStatsFor evaluates the paper's congestion statistics
// (m.Capacity must be set, e.g. via m.SetCapacityRelative).
func CongestionStatsFor(nl *Netlist, pl *Placement, m *CongestionMap) CongestionStats {
	return route.ComputeStats(nl, pl, m)
}

// ---- Structural lint (internal/lint exports) ----

type (
	// LintConfig selects and parameterizes lint rules; the zero value
	// runs every rule with default thresholds.
	LintConfig = lint.Config
	// LintReport is the sorted, fingerprinted outcome of a lint run.
	LintReport = lint.Report
	// LintFinding is one reported structural defect.
	LintFinding = lint.Finding
	// LintRule is the extension point for custom structural checks.
	LintRule = lint.Rule
	// LintSeverity ranks findings: info < warning < error.
	LintSeverity = lint.Severity
)

// Lint severities.
const (
	LintInfo    = lint.SevInfo
	LintWarning = lint.SevWarning
	LintError   = lint.SevError
)

// Lint runs every enabled structural rule over the netlist. Rules that
// need signal direction are skipped (and reported as skipped) unless
// the netlist carries the driver annotation (Netlist.Directed).
func Lint(nl *Netlist, cfg LintConfig) *LintReport { return lint.Lint(nl, cfg) }

// LintDelta re-lints a delta-derived netlist, re-checking local rules
// only on the dirty neighborhood. The findings are identical to a full
// Lint of the child.
func LintDelta(prev *LintReport, parent, child *Netlist, dirty []CellID, cfg LintConfig) *LintReport {
	return lint.LintDelta(prev, parent, child, dirty, cfg)
}

// LintRules returns the builtin rule catalog in report order.
func LintRules() []LintRule { return lint.Rules() }

// ParseLintSeverity parses "info", "warning" or "error".
func ParseLintSeverity(s string) (LintSeverity, error) { return lint.ParseSeverity(s) }

// ParseLintConfig decodes a lint configuration document, rejecting
// unknown fields. Empty input yields the default configuration.
func ParseLintConfig(data []byte) (LintConfig, error) {
	var cfg LintConfig
	if len(data) == 0 {
		return cfg, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("tanglefind: lint config: %w", err)
	}
	return cfg, nil
}

// ---- Single-seed ordering exports (for notebooks and examples that
// want the paper's Phase I/II primitives without a full Finder run) ----

// OrderingStats is one grown linear ordering with its per-step cut and
// pin counts — the raw material of a score curve.
type OrderingStats = core.OrderingStats

// GrowOrdering grows a single Phase I linear ordering from seed.
func GrowOrdering(nl *Netlist, seed CellID, maxLen int, opt Options) *OrderingStats {
	return core.GrowOrdering(nl, seed, maxLen, opt)
}

// ScoreCurve evaluates metric m along an ordering (aG is the
// netlist's average pins per cell, Netlist.AvgPins).
func ScoreCurve(o *OrderingStats, m Metric, aG float64) *Curve {
	return core.ScoreCurve(o, m, aG)
}
