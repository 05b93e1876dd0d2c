// Package api defines the wire types of the gtlserved HTTP/JSON API:
// netlist registry entries, job requests and statuses, streamed
// progress events and server statistics. The server (internal/server)
// and the Go client (package client) share these definitions, so a
// request marshalled by one side always parses on the other.
//
// Finder options travel as a nested JSON document (JobRequest.Options)
// and are decoded server-side with tanglefind.ParseOptions: absent
// fields keep the paper defaults, unknown fields are rejected.
package api

import (
	"encoding/json"
	"slices"
	"time"

	"tanglefind"
)

// Kind selects what a job computes over a registered netlist.
type Kind string

const (
	// KindFind runs the three-phase TangledLogicFinder and reports the
	// disjoint GTLs.
	KindFind Kind = "find"
	// KindCluster runs the finder, then collapses each detected GTL
	// into a soft-block macro (the floorplanning mitigation).
	KindCluster Kind = "cluster"
	// KindDecompose runs the finder, then re-instantiates complex
	// gates inside the detected GTLs as chains of simple gates (the
	// re-synthesis mitigation).
	KindDecompose Kind = "decompose"
	// KindFindIncremental runs detection over a delta-derived netlist
	// by reusing the recorded state of a previous run on its parent
	// digest wherever the delta provably cannot have changed the
	// computation. The result is identical to KindFind with the same
	// options — only the work differs (see JobResult.Incremental).
	KindFindIncremental Kind = "find_incremental"
	// KindLint runs the structural lint rule engine and reports the
	// findings. Results are cached by digest + rule configuration; a
	// delta-derived digest is linted incrementally against its parent's
	// report when one is available.
	KindLint Kind = "lint"
)

// Kinds returns every job kind, in the order the server's unknown-kind
// error names them.
func Kinds() []Kind {
	return []Kind{KindFind, KindCluster, KindDecompose, KindFindIncremental, KindLint}
}

// Valid reports whether k names a known job kind.
func (k Kind) Valid() bool { return slices.Contains(Kinds(), k) }

// State is a job's position in its lifecycle:
// queued → running → done | failed | cancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// NetlistInfo describes one entry of the content-addressed netlist
// registry. Digest is the lowercase hex SHA-256 of the uploaded bytes
// and is the netlist's identity everywhere in the API.
//
// GET /v1/netlists returns entries in a documented total order:
// resident (Loaded) entries most recently used first, then
// non-resident entries in ascending digest order — two calls over an
// unchanged registry always agree.
type NetlistInfo struct {
	Digest  string  `json:"digest"`
	Format  string  `json:"format"` // "tfb" or "tfnet", sniffed from content
	Bytes   int64   `json:"bytes"`  // uploaded payload size
	Cells   int     `json:"cells"`
	Nets    int     `json:"nets"`
	Pins    int     `json:"pins"`
	AvgPins float64 `json:"avg_pins"`
	// Loaded is false once the parsed netlist has been evicted from
	// memory to respect the registry's pin budget; the metadata stays
	// so clients learn they must re-upload.
	Loaded bool `json:"loaded"`
	// Parent is the digest this netlist was derived from by a delta
	// (empty for direct uploads). Lineage is what routes incremental
	// jobs to the parent's recorded state.
	Parent string `json:"parent,omitempty"`
}

// DeltaResult is the response of POST /v1/netlists/{digest}/deltas:
// the child registry entry plus the edit summary. The child digest is
// the content address (SHA-256 of the canonical .tfb serialization)
// of the patched netlist, so identical post-edit netlists land on one
// entry no matter how they were produced.
type DeltaResult struct {
	Parent string `json:"parent"`
	// Netlist is the child entry; Netlist.Digest addresses it in
	// follow-up jobs.
	Netlist NetlistInfo `json:"netlist"`
	// DirtyCells is the size of the edit's dirty set — the cells
	// incremental detection must treat as changed.
	DirtyCells   int `json:"dirty_cells"`
	CellsAdded   int `json:"cells_added"`
	CellsRemoved int `json:"cells_removed"`
	NetsAdded    int `json:"nets_added"`
	NetsRemoved  int `json:"nets_removed"`
}

// JobRequest submits work over a registered netlist.
type JobRequest struct {
	Kind   Kind   `json:"kind"`
	Digest string `json:"digest"`
	// Options is a nested finder-options JSON document; absent means
	// the paper defaults. Decoded with tanglefind.ParseOptions, so
	// unknown fields are rejected.
	Options json.RawMessage `json:"options,omitempty"`
	// MaxPins is the decompose jobs' gate-pin limit (default 3, the
	// 2-3 pin simple-gate library); ignored by other kinds.
	MaxPins int `json:"max_pins,omitempty"`
	// TimeoutMS bounds the job's compute time (not queue wait); 0
	// means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Lint is the rule configuration of a lint job (rule
	// enable/disable lists and thresholds); absent means every rule at
	// default thresholds. Decoded with tanglefind.ParseLintConfig, so
	// unknown fields are rejected. Ignored by other kinds.
	Lint json.RawMessage `json:"lint,omitempty"`
	// RequestID correlates the job with the HTTP request that submitted
	// it in structured logs. The server overwrites it with the request's
	// ID (the X-Request-ID header when the client sent one, otherwise
	// generated), so clients set it via the header, not this field.
	RequestID string `json:"request_id,omitempty"`
}

// GTLInfo is one detected group of tangled logic on the wire.
type GTLInfo struct {
	Size    int                 `json:"size"`
	Cut     int                 `json:"cut"`
	Pins    int                 `json:"pins"`
	NGTLS   float64             `json:"ngtl_s"`
	GTLSD   float64             `json:"gtl_sd"`
	Rent    float64             `json:"rent"`
	Seed    tanglefind.CellID   `json:"seed"`
	Members []tanglefind.CellID `json:"members"`
}

// ClusterInfo summarizes a cluster job's soft-block netlist.
type ClusterInfo struct {
	Macros     int `json:"macros"`      // one per detected GTL
	MacroCells int `json:"macro_cells"` // clustered netlist cell count
	MacroNets  int `json:"macro_nets"`
}

// DecomposeInfo summarizes a decompose job's resynthesized netlist.
type DecomposeInfo struct {
	CellsAdded int `json:"cells_added"` // new simple gates
	Cells      int `json:"cells"`       // resulting netlist size
	Nets       int `json:"nets"`
	Pins       int `json:"pins"`
}

// JobResult is the outcome of a completed job. Every kind carries the
// finder outcome; Cluster/Decompose carry their mitigation summary on
// top. Levels is present only for multilevel runs (Options.Levels > 1
// with a hierarchy that actually formed): the per-level breakdown of
// the coarsen → detect → project + refine pipeline.
type JobResult struct {
	GTLs       []GTLInfo               `json:"gtls"`
	Candidates int                     `json:"candidates"`
	SeedsRun   int                     `json:"seeds_run"`
	Rent       float64                 `json:"rent"`
	EngineMS   float64                 `json:"engine_ms"` // engine compute time
	Levels     []tanglefind.LevelStats `json:"levels,omitempty"`
	// Incremental is the reuse breakdown of a find_incremental run:
	// reused_groups/reseeded_cells and friends. Present only for
	// incremental jobs.
	Incremental *tanglefind.IncrStats `json:"incremental,omitempty"`
	// Sched describes how the run's seed schedule was executed across
	// engine workers (resolved worker count, per-worker seed counts and
	// busy time). Purely diagnostic — results are bit-identical for
	// any worker count; absent for cached and lint results.
	Sched     *tanglefind.SchedStats `json:"sched,omitempty"`
	Cluster   *ClusterInfo           `json:"cluster,omitempty"`
	Decompose *DecomposeInfo         `json:"decompose,omitempty"`
	// Lint is a lint job's full report: sorted fingerprinted findings,
	// per-rule stats and any skipped rules. Present only for lint jobs
	// (which leave every finder field zero).
	Lint *tanglefind.LintReport `json:"lint,omitempty"`
	// Stages is the job's flat stage-timing breakdown as
	// {"stage": milliseconds}: "queue_wait" (submit → start), "engine"
	// (the compute call) and "merge" (result assembly + mitigation),
	// plus the engine's own phases prefixed "engine_" ("engine_grow",
	// "engine_score", "engine_recombine", "engine_prune", and the
	// multilevel/incremental extras — see tanglefind.Result.Stages).
	// Non-empty on every job that reached a terminal state by running;
	// cached results carry the breakdown of the run that populated the
	// cache.
	Stages tanglefind.StageTimings `json:"stages,omitempty"`
}

// JobStatus is a job's externally visible state.
type JobStatus struct {
	ID     string `json:"id"`
	Kind   Kind   `json:"kind"`
	Digest string `json:"digest"`
	State  State  `json:"state"`
	// Cached is true when the result was served from the
	// digest+options result cache without running the engine.
	Cached     bool                 `json:"cached"`
	Error      string               `json:"error,omitempty"`
	Progress   *tanglefind.Progress `json:"progress,omitempty"`
	Result     *JobResult           `json:"result,omitempty"`
	CreatedAt  time.Time            `json:"created_at"`
	StartedAt  *time.Time           `json:"started_at,omitempty"`
	FinishedAt *time.Time           `json:"finished_at,omitempty"`
	// RequestID is the submitting HTTP request's ID, for correlating
	// the job with the server's structured request and job logs.
	RequestID string `json:"request_id,omitempty"`
}

// Event is one message on a job's progress stream. The first event a
// subscriber receives is always a snapshot of the current state, so a
// consumer that attaches at any point sees at least one event; a
// terminal-state event ends the stream.
type Event struct {
	JobID    string               `json:"job_id"`
	State    State                `json:"state"`
	Progress *tanglefind.Progress `json:"progress,omitempty"`
	Error    string               `json:"error,omitempty"`
	// Stages carries the job's stage-timing breakdown on terminal
	// events whose job produced a result (see JobResult.Stages), so
	// stream consumers get the latency split without refetching.
	Stages tanglefind.StageTimings `json:"stages,omitempty"`
}

// JobStats is the "jobs" half of the GET /v1/stats payload. Two kinds
// of field live here: point-in-time gauges sampled at the stats call
// (Queued, Running, QueueDepth, InFlightByKind, CachedSets,
// IncrStateBytes) and cumulative counters since process start (every
// other field). The same values back the gtl_jobs_* families on
// GET /metrics — both surfaces read the manager's counters, so they
// always agree in a quiesced server.
type JobStats struct {
	Submitted  int64 `json:"submitted"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	CacheHits  int64 `json:"cache_hits"`
	EngineRuns int64 `json:"engine_runs"` // jobs that actually ran the finder
	Queued     int   `json:"queued"`      // current
	Running    int   `json:"running"`     // current
	// QueueDepth is the pending queue's current length — jobs accepted
	// but not yet picked up by a worker. It can briefly differ from
	// Queued (a job leaves the pending list just before its state
	// flips to running).
	QueueDepth int `json:"queue_depth"`
	// InFlightByKind breaks the current non-terminal jobs
	// (queued + running) down by job kind; kinds with zero in-flight
	// jobs are omitted.
	InFlightByKind map[string]int `json:"in_flight_by_kind,omitempty"`
	CachedSets     int            `json:"cached_results"`
	// RunsByLevels counts completed engine runs by the number of
	// hierarchy levels they actually used ("1" = flat), so operators
	// can see how much traffic rides the multilevel pipeline.
	RunsByLevels map[string]int64 `json:"runs_by_levels,omitempty"`
	// IncrementalRuns counts find_incremental engine runs started;
	// IncrementalFallbacks counts those that degraded to a full run
	// (no usable parent state or an oversized dirty region).
	IncrementalRuns      int64 `json:"incremental_runs,omitempty"`
	IncrementalFallbacks int64 `json:"incremental_fallbacks,omitempty"`
	// IncrStateBytes estimates the memory retained by recorded
	// incremental seed states (the -incr-states LRU) — footprint
	// bitsets, recorded orderings and outcome candidates, each counted
	// once however many cached states of a delta chain share it.
	IncrStateBytes int64 `json:"incr_state_bytes,omitempty"`
	// LintRuns counts completed lint engine runs; LintIncremental
	// counts the subset answered incrementally from a parent report
	// (cache hits appear under CacheHits, not here).
	LintRuns        int64 `json:"lint_runs,omitempty"`
	LintIncremental int64 `json:"lint_incremental,omitempty"`
	// WorkerGrantsCapped counts engine runs whose worker request was
	// trimmed to fit the pool-wide budget (Config.EngineWorkers), the
	// fairness clamp that keeps concurrent jobs from oversubscribing
	// the machine.
	WorkerGrantsCapped int64 `json:"worker_grants_capped,omitempty"`
	// CoalescedJobs counts submissions that attached to an identical
	// queued or running run (same digest, kind, options and timeout)
	// instead of starting their own: they received their own job id,
	// stream and result without an extra engine run.
	CoalescedJobs int64 `json:"coalesced_jobs,omitempty"`
	// RewarmedResults counts result-cache entries restored from the
	// store's journal at startup (durable serving only).
	RewarmedResults int64 `json:"rewarmed_results,omitempty"`
	// JournalErrors counts finished job results the store's journal
	// failed to persist (durable serving only). Such a result is still
	// served and cached; it just will not be rewarmed after a restart.
	JournalErrors int64 `json:"journal_errors,omitempty"`
}

// StoreStats describes the netlist registry's memory state.
type StoreStats struct {
	Netlists   int `json:"netlists"`   // currently loaded
	Tombstones int `json:"tombstones"` // evicted, metadata retained
	// PinsLoaded is the charge the pin budget holds the resident
	// entries to: each netlist's pins plus the pins of the coarse
	// levels its engine caches for multilevel runs.
	PinsLoaded int64 `json:"pins_loaded"`
	PinBudget  int64 `json:"pin_budget"` // eviction threshold; 0 = unlimited
	Evictions  int64 `json:"evictions"`  // cumulative
	// EngineBytes estimates, in bytes, the engine memory beyond the
	// netlists: the cached coarsening hierarchies of the resident
	// netlists' engines (coarse levels and projection maps, whose pins
	// PinsLoaded charges), plus the idle per-worker scratch of the
	// process-wide engine pool they all share — at most GOMAXPROCS
	// states, counted once, and outside the pin budget.
	EngineBytes int64 `json:"engine_bytes"`
	// Durable reports whether the registry runs on a persistent
	// backend (gtlserved -data-dir): ingested payloads, delta lineage
	// and completed job results survive a restart, and eviction
	// becomes invisible (the blob is lazily re-parsed on next touch
	// instead of demanding a re-upload).
	Durable bool `json:"durable"`
	// RecoveredNetlists counts registry entries rebuilt from the
	// journal at startup; their payloads are re-parsed lazily on first
	// touch, not at recovery time.
	RecoveredNetlists int `json:"recovered_netlists,omitempty"`
	// RecoveredResults counts distinct journaled job results handed to
	// the result cache at startup.
	RecoveredResults int `json:"recovered_results,omitempty"`
	// LazyReloads counts blobs re-parsed on touch since startup —
	// recovered entries resolving for the first time, plus evicted
	// entries transparently reloading under a durable backend.
	LazyReloads int64 `json:"lazy_reloads,omitempty"`
	// JournalTruncatedBytes is the size of the torn journal tail
	// discarded at startup: non-zero exactly when the previous process
	// died mid-append, and bounded by one record.
	JournalTruncatedBytes int64 `json:"journal_truncated_bytes,omitempty"`
}

// ServerStats is the GET /v1/stats payload: the job manager's
// counters and gauges (see JobStats for which is which) plus the
// netlist registry's memory state. The Prometheus exposition on
// GET /metrics mirrors these same values as gtl_jobs_* / gtl_store_*
// families, with request-latency and per-stage histograms on top.
type ServerStats struct {
	Jobs  JobStats   `json:"jobs"`
	Store StoreStats `json:"store"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}
