// Package jobs runs detection work over registered netlists: a
// bounded submission queue feeding a fixed worker pool, each job a
// Finder run (optionally followed by the cluster/decompose
// mitigation) with its own cancellation context and optional compute
// deadline, a queued → running → done/failed/cancelled state machine,
// per-job progress fan-out to any number of subscribers, and a
// digest+options result cache so identical requests are answered
// without touching the engine.
//
// Everything here speaks the facade (package tanglefind) and the wire
// types (package api); no internal/core import is needed — the point
// of the PR-3 facade exports.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/store"
	"tanglefind/internal/telemetry"
)

// Typed submission failures, mapped to HTTP statuses by the server.
var (
	// ErrQueueFull means the bounded queue rejected the job; retry later.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed means the manager is draining for shutdown.
	ErrClosed = errors.New("jobs: manager shut down")
	// ErrNoJob means the job id is unknown (or its record was retired).
	ErrNoJob = errors.New("jobs: no such job")
	// ErrBadRequest wraps malformed submissions (unknown kind, bad
	// options, undersized netlist).
	ErrBadRequest = errors.New("jobs: bad request")
)

// Config sizes a Manager. Zero fields take the documented defaults.
type Config struct {
	// Store resolves digests to netlists and shared engines. Required.
	Store *store.Store
	// Workers is the number of concurrent jobs (default 2). Each job
	// is itself internally parallel per its Options.Workers.
	Workers int
	// EngineWorkers is the pool-wide budget of engine goroutines
	// shared by all concurrently running jobs (default GOMAXPROCS).
	// Each job is granted min(its requested Options.Workers, what the
	// budget has free) — never less than 1 — when it starts, and
	// returns the grant when it finishes, so one greedy job cannot
	// oversubscribe the machine under concurrent load. Grants never
	// change results, only scheduling.
	EngineWorkers int
	// QueueDepth bounds the submission queue (default 64); a full
	// queue rejects with ErrQueueFull instead of buffering unboundedly.
	QueueDepth int
	// CacheResults bounds the result cache entry count (default 128).
	CacheResults int
	// IncrStates bounds how many recorded incremental states (one per
	// digest+options, each O(Seeds × MaxOrderLen) bytes) are retained
	// for find_incremental jobs (default 8).
	IncrStates int
	// LintStates bounds how many lint reports (one per digest+rule
	// config) are retained so delta-derived digests lint incrementally
	// against their parent's report (default 16).
	LintStates int
	// MaxJobs bounds retained job records; the oldest terminal records
	// are retired past this (default 1024).
	MaxJobs int
	// Metrics is the telemetry registry the manager registers its job
	// families in (stage histograms, outcome counters, scrape-mirrored
	// stats). Nil gets a private registry; the serving layer shares it
	// through Manager.Registry so one /metrics covers both.
	Metrics *telemetry.Registry
	// Logger receives structured job-lifecycle records (queued,
	// started, finished — with the submitting request's ID and the
	// stage durations). Nil discards.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheResults <= 0 {
		c.CacheResults = 128
	}
	if c.IncrStates <= 0 {
		c.IncrStates = 8
	}
	if c.LintStates <= 0 {
		c.LintStates = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Manager owns the queue, the worker pool, the job records and the
// result cache. Construct with New, dispose with Shutdown.
//
// The queue is an explicit pending list (not a channel) so that
// cancelling a queued job frees its slot immediately — buffered
// cancelled jobs must not hold QueueDepth against live submissions.
type Manager struct {
	cfg   Config
	cache *resultCache
	incr  *incrCache
	lints *lintCache
	wg    sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond // signals workers that pending grew or closed flipped
	pending []*Job     // queued jobs awaiting a worker, FIFO
	jobs    map[string]*Job
	order   []string // submission order, for listing and retirement
	closed  bool
	// inflight is the single-flight table: cacheKey → the job whose
	// engine run will serve every identical submission arriving while
	// it is queued or running (those attach as followers instead of
	// consuming a queue slot and an engine run). Guarded by mu; the
	// running worker removes its entry before finishing the job, so a
	// submission can never attach to a run that will not publish to it.
	inflight map[string]*Job

	nextID        atomic.Int64
	submitted     atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	cancelled     atomic.Int64
	cacheHits     atomic.Int64
	engineRuns    atomic.Int64
	incrRuns      atomic.Int64
	incrFallbacks atomic.Int64
	lintRuns      atomic.Int64
	lintIncr      atomic.Int64
	seedsStolen   atomic.Int64
	grantsCapped  atomic.Int64
	coalesced     atomic.Int64
	rewarmed      atomic.Int64
	journalErrs   atomic.Int64

	// testMitigationErr, when set by a test, is returned by the
	// mitigation step of every run — the seam for pinning the
	// "failed job must not prime caches" invariants, since Cluster/
	// Decompose cannot be made to fail through the public API.
	testMitigationErr error

	// grantMu guards the engine-worker budget (see Config.EngineWorkers).
	grantMu     sync.Mutex
	grantsInUse int

	levelMu     sync.Mutex
	runsByLevel map[int]int64 // engine runs keyed by hierarchy levels used (1 = flat)

	// Live metric handles (children resolved once at construction so
	// terminal paths pay one atomic op per update). The cumulative
	// stats atomics above are additionally mirrored into counter
	// families at scrape time — see registerMetrics.
	log          *slog.Logger
	stageSeconds *telemetry.HistogramVec
	jobsFinished *telemetry.CounterVec
	cacheHitC    *telemetry.Counter
	cacheMissC   *telemetry.Counter
	grantFullC   *telemetry.Counter
	grantCapC    *telemetry.Counter
}

// New starts a manager and its worker pool. When the store recovered
// journaled job results at startup (durable serving), they are
// rewarmed into the result cache before the first submission, so a
// restart does not turn yesterday's cache hits into engine runs.
func New(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:         cfg,
		cache:       newResultCache(cfg.CacheResults),
		incr:        newIncrCache(cfg.IncrStates),
		lints:       newLintCache(cfg.LintStates),
		jobs:        make(map[string]*Job),
		inflight:    make(map[string]*Job),
		runsByLevel: make(map[int]int64),
	}
	m.cond = sync.NewCond(&m.mu)
	m.log = cfg.Logger
	m.registerMetrics()
	if cfg.Store != nil {
		for key, raw := range cfg.Store.RecoveredResults() {
			var res api.JobResult
			if err := json.Unmarshal(raw, &res); err != nil {
				m.log.Warn("discarding unreadable journaled result", "key", key, "err", err)
				continue
			}
			m.cache.put(key, &res)
			m.rewarmed.Add(1)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the registry the manager's job metrics live in, so
// the serving layer can add its own families and expose one /metrics.
func (m *Manager) Registry() *telemetry.Registry { return m.cfg.Metrics }

// registerMetrics declares the manager's metric families. Live
// counters/histograms are updated on the job paths; everything the
// Stats() call already counts is mirrored into families at scrape
// time instead, so GET /metrics and GET /v1/stats can never disagree.
func (m *Manager) registerMetrics() {
	reg := m.cfg.Metrics
	m.stageSeconds = reg.HistogramVec("gtl_job_stage_seconds",
		"Completed-job stage latency in seconds by job kind and stage: queue_wait, engine, merge, plus the engine's own engine_* phases.",
		nil, "kind", "stage")
	m.jobsFinished = reg.CounterVec("gtl_jobs_finished_total",
		"Jobs reaching a terminal state by running, by kind and outcome (done, failed, cancelled). Cache hits are not counted here.",
		"kind", "outcome")
	cacheVec := reg.CounterVec("gtl_job_cache_total",
		"Result-cache consultations for accepted submissions, by outcome (hit, miss).", "result")
	m.cacheHitC = cacheVec.With("hit")
	m.cacheMissC = cacheVec.With("miss")
	grantVec := reg.CounterVec("gtl_worker_grants_total",
		"Engine-worker grants at job start, by outcome: full means the request fit the pool budget, capped means it was trimmed.", "outcome")
	m.grantFullC = grantVec.With("full")
	m.grantCapC = grantVec.With("capped")

	// Scrape-time mirrors of the /v1/stats payload.
	submitted := reg.Counter("gtl_jobs_submitted_total", "Accepted job submissions (including cache hits) since process start.")
	cacheHits := reg.Counter("gtl_job_cache_hits_total", "Submissions answered from the result cache without engine work.")
	engineRuns := reg.Counter("gtl_engine_runs_total", "Jobs that actually ran the finder engine.")
	incrRuns := reg.Counter("gtl_incremental_runs_total", "Completed find_incremental engine runs.")
	incrFallbacks := reg.Counter("gtl_incremental_fallbacks_total", "Incremental runs that degraded to a full re-detection.")
	lintRuns := reg.Counter("gtl_lint_runs_total", "Completed lint engine runs.")
	lintIncr := reg.Counter("gtl_lint_incremental_total", "Lint runs answered incrementally from a parent report.")
	seedsStolen := reg.Counter("gtl_parallel_seeds_stolen_total", "Seeds migrated between engine workers by the work-stealing scheduler.")
	coalesced := reg.Counter("gtl_jobs_coalesced_total", "Submissions attached as followers of an identical in-flight job (one engine run serves the whole group).")
	rewarmed := reg.Counter("gtl_job_results_rewarmed_total", "Result-cache entries restored from the store journal at startup.")
	journalErrs := reg.Counter("gtl_job_journal_errors_total", "Finished job results the store journal failed to persist: still served and cached, but lost on restart.")
	queueDepth := reg.Gauge("gtl_jobs_queue_depth", "Jobs accepted but not yet picked up by a worker.")
	queued := reg.Gauge("gtl_jobs_queued", "Jobs currently in the queued state.")
	running := reg.Gauge("gtl_jobs_running", "Jobs currently running.")
	inFlight := reg.GaugeVec("gtl_jobs_in_flight", "Non-terminal jobs (queued + running) by job kind.", "kind")
	cachedResults := reg.Gauge("gtl_job_cached_results", "Entries currently held by the result cache.")
	incrBytes := reg.Gauge("gtl_incremental_state_bytes", "Estimated memory retained by recorded incremental seed states.")
	byLevels := reg.CounterVec("gtl_engine_runs_by_levels_total", "Completed engine runs by hierarchy levels actually used (1 = flat).", "levels")
	reg.OnScrape(func() {
		st := m.Stats()
		submitted.Set(float64(st.Submitted))
		cacheHits.Set(float64(st.CacheHits))
		engineRuns.Set(float64(st.EngineRuns))
		incrRuns.Set(float64(st.IncrementalRuns))
		incrFallbacks.Set(float64(st.IncrementalFallbacks))
		lintRuns.Set(float64(st.LintRuns))
		lintIncr.Set(float64(st.LintIncremental))
		seedsStolen.Set(float64(st.ParallelSeedsStolen))
		coalesced.Set(float64(st.CoalescedJobs))
		rewarmed.Set(float64(st.RewarmedResults))
		journalErrs.Set(float64(st.JournalErrors))
		queueDepth.Set(float64(st.QueueDepth))
		queued.Set(float64(st.Queued))
		running.Set(float64(st.Running))
		cachedResults.Set(float64(st.CachedSets))
		incrBytes.Set(float64(st.IncrStateBytes))
		for _, k := range []api.Kind{api.KindFind, api.KindCluster, api.KindDecompose, api.KindFindIncremental, api.KindLint} {
			inFlight.With(string(k)).Set(float64(st.InFlightByKind[string(k)]))
		}
		for lv, n := range st.RunsByLevels {
			byLevels.With(lv).Set(float64(n))
		}
	})
}

// Job is one unit of work. All mutable state is behind mu; the
// identity fields are immutable after Submit.
type Job struct {
	id   string
	kind api.Kind
	// reqID is the HTTP request ID that submitted the job, carried
	// through statuses and logs so one curl correlates end to end.
	reqID    string
	digest   string
	opt      tanglefind.Options
	maxPins  int
	timeout  time.Duration
	cacheKey string
	// Incremental and lint jobs resolve their lineage parent at submit
	// time; the parent's recorded state is looked up at run time (it
	// may still be computing when the job is queued).
	parent  string
	lintCfg tanglefind.LintConfig
	ctx     context.Context
	cancel  context.CancelFunc

	// leader, when non-nil, marks this job a coalesced follower: its
	// result comes from the leader's engine run, not a run of its own.
	// Guarded by the manager's mu (it is only set at accept time and
	// cleared by promotion inside Cancel).
	leader *Job

	mu sync.Mutex
	// h is what the job's run needs from the store. Only a job that
	// will queue resolves it, and the record drops it on reaching a
	// terminal state, so finished records — retained up to MaxJobs —
	// never keep an engine or netlist reachable.
	h        handles
	state    api.State
	cached   bool
	errMsg   string
	result   *api.JobResult
	progress *tanglefind.Progress
	created  time.Time
	started  *time.Time
	finished *time.Time
	subs     map[int]chan api.Event
	nextSub  int
	// followers are identical submissions riding this job's engine
	// run (see Manager.inflight). Guarded by this job's mu.
	followers []*Job
}

// handles are a job run's references into the store: the shared
// engine (find kinds) or the netlist (lint), plus the dirty cells of
// the digest's delta lineage.
type handles struct {
	finder *tanglefind.Finder
	lintNl *tanglefind.Netlist
	dirty  []tanglefind.CellID
}

// Submit validates a request against the digest's metadata, consults
// the result cache, and either answers from cache (state done, Cached
// true, no engine work), attaches the job to an identical in-flight
// run, or resolves its engine and enqueues it. The returned status is
// the job's state at return time. A cached result stays servable after
// its netlist is evicted: only a job that must run needs the netlist.
func (m *Manager) Submit(req api.JobRequest) (api.JobStatus, error) {
	if !req.Kind.Valid() {
		return api.JobStatus{}, fmt.Errorf("%w: unknown kind %q (want find, cluster, decompose, find_incremental or lint)", ErrBadRequest, req.Kind)
	}
	if req.Kind == api.KindLint {
		return m.submitLint(req)
	}
	info, ok := m.cfg.Store.Info(req.Digest)
	if !ok {
		return api.JobStatus{}, store.ErrNotFound
	}
	opt, err := tanglefind.ParseOptions(req.Options)
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var parent string
	var dirty []tanglefind.CellID
	if req.Kind == api.KindFindIncremental {
		lin, ok := m.cfg.Store.Lineage(req.Digest)
		if !ok {
			return api.JobStatus{}, fmt.Errorf("%w: digest %s has no delta lineage (POST a delta first, or use kind \"find\")", ErrBadRequest, req.Digest)
		}
		parent, dirty = lin.Parent, lin.Dirty
		// Record state on the child run too, so chains of deltas keep
		// reusing work without a priming full run per step.
		opt.RecordIncremental = true
	}
	// Mirror the CLI clamp: an ordering may not swallow the whole
	// netlist, or Phase II has no exterior curve to contrast against.
	if opt.MaxOrderLen >= info.Cells {
		opt.MaxOrderLen = info.Cells / 2
		if opt.MaxOrderLen < 2 {
			return api.JobStatus{}, fmt.Errorf("%w: netlist too small (%d cells)", ErrBadRequest, info.Cells)
		}
	}
	maxPins := 0
	if req.Kind == api.KindDecompose {
		maxPins = req.MaxPins
		if maxPins == 0 {
			maxPins = 3
		}
		if maxPins < 2 {
			return api.JobStatus{}, fmt.Errorf("%w: max_pins must be at least 2, got %d", ErrBadRequest, maxPins)
		}
	}
	if req.TimeoutMS < 0 {
		return api.JobStatus{}, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind:     req.Kind,
		reqID:    req.RequestID,
		digest:   req.Digest,
		opt:      opt,
		maxPins:  maxPins,
		timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		cacheKey: cacheKey(req.Kind, req.Digest, maxPins, opt),
		parent:   parent,
		ctx:      ctx,
		cancel:   cancel,
		state:    api.StateQueued,
		created:  time.Now(),
		subs:     make(map[int]chan api.Event),
	}
	return m.accept(j, func() (handles, error) {
		finder, _, err := m.cfg.Store.Engine(req.Digest)
		return handles{finder: finder, dirty: dirty}, err
	})
}

// submitLint validates a lint request and builds its job. Lint jobs
// run on the raw netlist (no finder engine) and key the result cache
// on the canonical rule configuration; a digest with delta lineage
// also records its parent so the run can lint incrementally.
func (m *Manager) submitLint(req api.JobRequest) (api.JobStatus, error) {
	if _, ok := m.cfg.Store.Info(req.Digest); !ok {
		return api.JobStatus{}, store.ErrNotFound
	}
	cfg, err := tanglefind.ParseLintConfig(req.Lint)
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.TimeoutMS < 0 {
		return api.JobStatus{}, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}
	var parent string
	var dirty []tanglefind.CellID
	if lin, ok := m.cfg.Store.Lineage(req.Digest); ok {
		parent, dirty = lin.Parent, lin.Dirty
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		kind:     req.Kind,
		reqID:    req.RequestID,
		digest:   req.Digest,
		timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		cacheKey: lintKey(req.Digest, cfg),
		lintCfg:  cfg,
		parent:   parent,
		ctx:      ctx,
		cancel:   cancel,
		state:    api.StateQueued,
		created:  time.Now(),
		subs:     make(map[int]chan api.Event),
	}
	return m.accept(j, func() (handles, error) {
		nl, _, err := m.cfg.Store.Get(req.Digest)
		return handles{lintNl: nl, dirty: dirty}, err
	})
}

// accept enqueues the job and, off the manager lock, emits the
// structured submission record. resolve fetches the job's handles from
// the store; it is called only if the job will queue.
func (m *Manager) accept(j *Job, resolve func() (handles, error)) (api.JobStatus, error) {
	st, err := m.enqueue(j, resolve)
	if err != nil {
		return st, err
	}
	msg := "job queued"
	if st.Cached {
		msg = "job served from cache"
	}
	m.log.Info(msg,
		"job_id", st.ID, "kind", string(j.kind), "digest", j.digest,
		"request_id", j.reqID)
	return st, nil
}

// enqueue answers the job without a run of its own when it can
// (answerLocked) and otherwise appends it to the pending list. Its
// handles are resolved only on that last path, outside m.mu — a store
// reload re-parses a blob — after which the cache and the single-flight
// table are consulted again, since an identical run may have finished
// or started in between.
func (m *Manager) enqueue(j *Job, resolve func() (handles, error)) (api.JobStatus, error) {
	m.mu.Lock()
	st, answered, err := m.answerLocked(j)
	m.mu.Unlock()
	if answered {
		return st, err
	}
	h, err := resolve()
	if err != nil {
		j.cancel()
		return api.JobStatus{}, err
	}
	j.h = h // not yet shared: the job is published by addJobLocked below

	m.mu.Lock()
	defer m.mu.Unlock()
	if st, answered, err := m.answerLocked(j); answered {
		return st, err
	}
	// Accepted: only now does the submission count, so rejected
	// requests don't inflate the stats.
	m.submitted.Add(1)
	m.cacheMissC.Inc()
	j.id = fmt.Sprintf("job-%06d", m.nextID.Add(1))
	m.pending = append(m.pending, j)
	m.inflight[j.cacheKey] = j
	m.cond.Signal()
	m.addJobLocked(j)
	return j.Status(), nil
}

// answerLocked settles a submission that needs no queue slot: refused
// when the manager is closed or the queue is full, answered from the
// result cache (state done, Cached true), or attached as a follower of
// an identical in-flight job. It reports false when the job must
// queue. Callers hold m.mu.
func (m *Manager) answerLocked(j *Job) (api.JobStatus, bool, error) {
	if m.closed {
		j.cancel()
		return api.JobStatus{}, true, ErrClosed
	}

	// A recorded run's purpose includes (re)priming the incremental
	// state cache; if its state has been evicted from the bounded LRU,
	// the cached wire result alone cannot do that — skip the shortcut
	// and run the engine again.
	statePrimed := false
	if j.opt.RecordIncremental {
		_, statePrimed = m.incr.get(incrKey(j.digest, j.opt))
	}
	if res, ok := m.cache.get(j.cacheKey); ok && (!j.opt.RecordIncremental || statePrimed) {
		// Identical digest+kind+options already computed: serve the
		// cached result without consuming a queue slot or worker. The
		// hit gets its own shallow copy of the result: engine stages
		// carry over (they describe the run that produced the data,
		// clearly attributed by Cached=true), but queue_wait and merge
		// belong to that first job alone — a hit reports its own,
		// effectively zero, queue wait instead of another job's.
		m.submitted.Add(1)
		m.cacheHits.Add(1)
		m.cacheHitC.Inc()
		j.cancel()
		j.id = fmt.Sprintf("job-%06d", m.nextID.Add(1))
		now := time.Now()
		hit := *res
		hit.Stages = ownQueueWait(res.Stages, now.Sub(j.created))
		j.mu.Lock()
		j.h = handles{} // resolved just before an identical run finished
		j.state = api.StateDone
		j.cached = true
		j.result = &hit
		j.finished = &now
		j.mu.Unlock()
		m.addJobLocked(j)
		return j.Status(), true, nil
	}

	// Single-flight: an identical job already queued or running means
	// this submission attaches as a follower of that engine run — its
	// own job id, stream and completion, no queue slot, no second run.
	// The follower's context stays live: if the leader is cancelled
	// while queued, a follower is promoted to run in its place (taking
	// the leader's handles, since a follower holds none).
	if leader := m.inflight[j.cacheKey]; leader != nil {
		leader.mu.Lock()
		if !leader.state.Terminal() {
			m.submitted.Add(1)
			m.coalesced.Add(1)
			m.cacheMissC.Inc()
			j.id = fmt.Sprintf("job-%06d", m.nextID.Add(1))
			j.leader = leader
			j.h = handles{}
			if leader.state == api.StateRunning {
				// The run is already underway: the follower waited for
				// nothing, and its state says so immediately.
				now := time.Now()
				j.state = api.StateRunning
				j.started = &now
			}
			leader.followers = append(leader.followers, j)
			leader.mu.Unlock()
			m.addJobLocked(j)
			return j.Status(), true, nil
		}
		// The leader reached a terminal state between removing itself
		// from the table and now — impossible while the worker clears
		// inflight first, but never attach to a finished run.
		leader.mu.Unlock()
		delete(m.inflight, j.cacheKey)
	}

	if len(m.pending) >= m.cfg.QueueDepth {
		j.cancel()
		return api.JobStatus{}, true, ErrQueueFull
	}
	return api.JobStatus{}, false, nil
}

// ownQueueWait copies a finished run's stage breakdown for a job that
// did not run (a cache hit or a coalesced follower): the engine and
// merge stages carry over (they describe the run that produced the
// data, clearly attributed by Cached or the coalesced lineage), but
// the producing run's queue_wait is replaced by this job's own.
func ownQueueWait(stages tanglefind.StageTimings, wait time.Duration) tanglefind.StageTimings {
	out := tanglefind.StageTimings{}
	for name, d := range stages {
		if name == "queue_wait" {
			continue
		}
		out[name] = d
	}
	if wait < 0 {
		wait = 0
	}
	out.Add("queue_wait", wait)
	return out
}

// addJobLocked records a job and retires the oldest terminal records
// past the retention bound. Callers hold m.mu.
func (m *Manager) addJobLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	for len(m.order) > m.cfg.MaxJobs {
		oldest := m.jobs[m.order[0]]
		if oldest != nil && !oldest.Status().State.Terminal() {
			break // never retire a live job record
		}
		delete(m.jobs, m.order[0])
		m.order = m.order[1:]
	}
}

// Status returns the job's current externally visible state.
func (m *Manager) Status(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return api.JobStatus{}, ErrNoJob
	}
	return j.Status(), nil
}

// List returns every retained job's status, most recent submission
// first.
func (m *Manager) List() []api.JobStatus {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		if j := m.jobs[m.order[i]]; j != nil {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	return out
}

// Cancel stops a job: a queued job flips to cancelled immediately, a
// running job's context is cancelled and its worker returns with
// partial work discarded (the worker is freed for the next job).
// Coalesced groups narrow the blast radius to the one submission
// being cancelled: a follower detaches from its leader's run; a
// queued leader hands the run to its first follower (promotion — the
// group still gets exactly one engine run); a running leader detaches
// its own record while the run keeps serving the remaining followers.
// It is a no-op on terminal jobs.
func (m *Manager) Cancel(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return api.JobStatus{}, ErrNoJob
	}
	// Follower: detach from the leader so the run no longer publishes
	// to this record, then settle it. The run itself is untouched.
	if l := j.leader; l != nil {
		l.mu.Lock()
		for i, f := range l.followers {
			if f == j {
				l.followers = append(l.followers[:i], l.followers[i+1:]...)
				break
			}
		}
		l.mu.Unlock()
		m.mu.Unlock()
		if j.finish(api.StateCancelled, nil, "cancelled") {
			m.cancelled.Add(1)
			m.observeFinish(j, "cancelled", nil)
		}
		return j.Status(), nil
	}
	detached := false
	if m.inflight[j.cacheKey] == j {
		j.mu.Lock()
		switch {
		case j.state == api.StateQueued && len(j.followers) > 0:
			// Promote the first follower: it inherits the pending slot,
			// the remaining followers and the single-flight entry, so
			// the group still runs exactly once. The promoted job keeps
			// its own submission time, so its queue_wait stays honest.
			// Followers hold no handles, so the promoted job gets a
			// copy of the leader's; j keeps its own until it finishes,
			// in case a worker that already popped it wins tryStart.
			promoted := j.followers[0]
			rest := j.followers[1:]
			j.followers = nil
			h := j.h
			j.mu.Unlock()
			promoted.leader = nil
			promoted.mu.Lock()
			promoted.h = h
			promoted.followers = append(promoted.followers, rest...)
			promoted.mu.Unlock()
			for _, f := range rest {
				f.leader = promoted
			}
			m.inflight[j.cacheKey] = promoted
			replaced := false
			for i, p := range m.pending {
				if p == j {
					m.pending[i] = promoted
					replaced = true
					break
				}
			}
			if !replaced {
				// A worker already popped j; its tryStart will lose to
				// the finish below and the worker returns empty-handed,
				// so the promoted job needs a fresh slot at the front.
				m.pending = append([]*Job{promoted}, m.pending...)
				m.cond.Signal()
			}
		case j.state == api.StateRunning && len(j.followers) > 0:
			// The run must survive for its followers: detach only this
			// job's record and leave the context alone.
			detached = true
			j.mu.Unlock()
		default:
			// No followers ride this run; drop the single-flight entry
			// so an identical submission starts fresh instead of
			// attaching to a dying run.
			j.mu.Unlock()
			delete(m.inflight, j.cacheKey)
		}
	}
	// Drop it from the pending list so its queue slot frees
	// immediately instead of when a worker eventually pops it
	// (no-op when promotion already replaced the slot).
	for i, p := range m.pending {
		if p == j {
			m.pending = slices.Delete(m.pending, i, i+1) // zeroes the vacated tail slot
			break
		}
	}
	m.mu.Unlock()
	if detached {
		if j.finishNoCancel(api.StateCancelled, nil, "cancelled") {
			m.cancelled.Add(1)
			m.observeFinish(j, "cancelled", nil)
		}
		return j.Status(), nil
	}
	j.mu.Lock()
	queued := j.state == api.StateQueued
	j.mu.Unlock()
	if queued {
		// finish is a no-op if the worker won the race to start it; in
		// that case the context cancellation below still stops it.
		if j.finish(api.StateCancelled, nil, "cancelled before start") {
			m.cancelled.Add(1)
			m.observeFinish(j, "cancelled", nil)
		}
	}
	j.cancel()
	return j.Status(), nil
}

// Subscribe attaches a progress consumer to a job. The channel
// immediately carries a snapshot event (so a consumer always sees at
// least one event), then every state/progress change; it is closed
// after the terminal event. Call the returned function to detach.
func (m *Manager) Subscribe(id string) (<-chan api.Event, func(), error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return nil, nil, ErrNoJob
	}
	ch, unsub := j.subscribe()
	return ch, unsub, nil
}

// Stats reports cumulative counters and current queue occupancy.
func (m *Manager) Stats() api.JobStats {
	st := api.JobStats{
		Submitted:            m.submitted.Load(),
		Completed:            m.completed.Load(),
		Failed:               m.failed.Load(),
		Cancelled:            m.cancelled.Load(),
		CacheHits:            m.cacheHits.Load(),
		EngineRuns:           m.engineRuns.Load(),
		IncrementalRuns:      m.incrRuns.Load(),
		IncrementalFallbacks: m.incrFallbacks.Load(),
		LintRuns:             m.lintRuns.Load(),
		LintIncremental:      m.lintIncr.Load(),
		CachedSets:           m.cache.len(),
		IncrStateBytes:       m.incr.memoryEstimate(),
		ParallelSeedsStolen:  m.seedsStolen.Load(),
		WorkerGrantsCapped:   m.grantsCapped.Load(),
		CoalescedJobs:        m.coalesced.Load(),
		RewarmedResults:      m.rewarmed.Load(),
		JournalErrors:        m.journalErrs.Load(),
	}
	m.levelMu.Lock()
	if len(m.runsByLevel) > 0 {
		st.RunsByLevels = make(map[string]int64, len(m.runsByLevel))
		for lv, n := range m.runsByLevel {
			st.RunsByLevels[fmt.Sprintf("%d", lv)] = n
		}
	}
	m.levelMu.Unlock()
	m.mu.Lock()
	st.QueueDepth = len(m.pending)
	for _, j := range m.jobs {
		jst := j.Status()
		switch jst.State {
		case api.StateQueued:
			st.Queued++
		case api.StateRunning:
			st.Running++
		}
		if !jst.State.Terminal() {
			if st.InFlightByKind == nil {
				st.InFlightByKind = make(map[string]int)
			}
			st.InFlightByKind[string(jst.Kind)]++
		}
	}
	m.mu.Unlock()
	return st
}

// Shutdown drains the manager: no new submissions, queued and running
// jobs keep going until done. If ctx expires first, every remaining
// job is cancelled and Shutdown still waits for the workers to
// return before reporting the deadline error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			j.cancel()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker consumes the pending list until it is empty after Shutdown —
// jobs queued before the shutdown still drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending[0] = nil // the backing array must not keep j reachable
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.run(j)
	}
}

// run executes one job end to end.
func (m *Manager) run(j *Job) {
	if j.ctx.Err() != nil {
		// Cancelled while queued (explicitly or by a forced shutdown);
		// any followers go down with the run they were waiting on.
		m.finishGroup(j, api.StateCancelled, nil, "cancelled before start", nil, "cancelled")
		return
	}
	// The run works from its own copy of the handles: a running leader
	// cancelled out of its group drops the record's copy while the run
	// keeps serving the followers.
	h, ok := j.tryStart()
	if !ok {
		return // lost the race with Cancel, which settled the group
	}
	m.startFollowers(j)
	stages := tanglefind.StageTimings{}
	stages.Add("queue_wait", j.queueWait())
	if j.kind == api.KindLint {
		m.runLint(j, h, stages)
		return
	}
	ctx, cancel := j.ctx, func() {}
	if j.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.timeout)
	}
	defer cancel()

	opt := j.opt
	opt.Progress = j.setProgress
	grant := m.acquireWorkers(opt.Workers)
	defer m.releaseWorkers(grant)
	opt.Workers = grant
	m.engineRuns.Add(1)
	engineStart := time.Now()
	var res *tanglefind.Result
	var err error
	if j.kind == api.KindFindIncremental {
		// The parent's recorded state is optional: absent (never run,
		// evicted from the bounded state cache, or recorded under
		// different options) the engine degrades to a full run and
		// reports the fallback in the result breakdown.
		var prev *tanglefind.Result
		if p, ok := m.incr.get(incrKey(j.parent, j.opt)); ok {
			prev = p
		}
		m.incrRuns.Add(1)
		res, err = h.finder.FindIncremental(ctx, opt, prev, h.dirty)
		if res != nil && res.Incremental != nil && res.Incremental.FullFallback {
			m.incrFallbacks.Add(1)
		}
	} else {
		res, err = h.finder.Find(ctx, opt)
	}
	stages.Add("engine", time.Since(engineStart))
	mergeStart := time.Now()
	if res != nil && res.Sched != nil {
		m.seedsStolen.Add(res.Sched.SeedsStolen)
	}
	if res != nil {
		// Count by the levels the run actually used: a Levels=4 request
		// over a small netlist may coarsen less than asked (or not at
		// all), and that is what operators need to see.
		used := len(res.Levels)
		if used == 0 {
			used = 1
		}
		m.levelMu.Lock()
		m.runsByLevel[used]++
		m.levelMu.Unlock()
	}
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			m.finishGroup(j, api.StateCancelled, nil, "cancelled", stages, "cancelled")
		default: // deadline exceeded or an engine error
			m.finishGroup(j, api.StateFailed, nil, err.Error(), stages, "failed")
		}
		return
	}
	out := findResult(res)
	mitErr := m.testMitigationErr
	if mitErr == nil {
		mitErr = j.applyMitigation(h.finder.Netlist(), res, out)
	}
	if mitErr != nil {
		m.finishGroup(j, api.StateFailed, nil, mitErr.Error(), stages, "failed")
		return
	}
	// Only a run that is known good primes the incremental-state
	// cache: a job that fails mitigation after a clean detection pass
	// must leave no state behind, or the next identical submission
	// would be served (or incrementally seeded) by a failed job.
	if res.IncrState != nil {
		m.incr.put(incrKey(j.digest, j.opt), res)
	}
	for name, d := range res.Stages {
		stages.Add("engine_"+name, d)
	}
	// The breakdown must be complete before the cache put: cached
	// JobResult pointers are shared across submissions and immutable.
	stages.Add("merge", time.Since(mergeStart))
	out.Stages = stages
	m.cache.put(j.cacheKey, out)
	m.journalResult(j.cacheKey, out)
	m.finishGroup(j, api.StateDone, out, "", stages, "done")
}

// finishGroup drives the job that owned an engine run — and every
// follower coalesced onto it — to a terminal state. The single-flight
// entry is cleared first, so no submission can attach once the group
// starts finishing; each follower gets a shallow result copy carrying
// its own queue_wait, and counts its own terminal outcome.
func (m *Manager) finishGroup(j *Job, state api.State, out *api.JobResult, errMsg string, stages tanglefind.StageTimings, outcome string) {
	m.mu.Lock()
	if m.inflight[j.cacheKey] == j {
		delete(m.inflight, j.cacheKey)
	}
	m.mu.Unlock()
	j.mu.Lock()
	followers := j.followers
	j.followers = nil
	var start time.Time
	if j.started != nil {
		start = *j.started
	}
	j.mu.Unlock()
	if j.finish(state, out, errMsg) {
		m.countOutcome(outcome)
		m.observeFinish(j, outcome, stages)
	}
	for _, f := range followers {
		wait := time.Since(f.created)
		if !start.IsZero() {
			wait = start.Sub(f.created)
		}
		if wait < 0 {
			wait = 0
		}
		var fres *api.JobResult
		if out != nil {
			cp := *out
			cp.Stages = ownQueueWait(out.Stages, wait)
			fres = &cp
		}
		if f.finish(state, fres, errMsg) {
			m.countOutcome(outcome)
			// Followers observe only their own wait: the engine stages
			// belong to the one run and must not be double-counted in
			// the latency histograms.
			m.observeFinish(f, outcome, tanglefind.StageTimings{"queue_wait": wait})
		}
	}
}

// countOutcome bumps the cumulative counter for one terminal outcome.
func (m *Manager) countOutcome(outcome string) {
	switch outcome {
	case "done":
		m.completed.Add(1)
	case "failed":
		m.failed.Add(1)
	case "cancelled":
		m.cancelled.Add(1)
	}
}

// startFollowers mirrors the leader's queued→running transition onto
// followers attached before the run started (followers attaching after
// it stamp their own start at accept time).
func (m *Manager) startFollowers(j *Job) {
	j.mu.Lock()
	followers := append([]*Job(nil), j.followers...)
	var start time.Time
	if j.started != nil {
		start = *j.started
	}
	j.mu.Unlock()
	for _, f := range followers {
		f.mirrorStart(start)
	}
}

// journalResult appends a finished result to the store journal (a
// no-op on non-durable stores) so a restart rewarms the result cache.
// Journal trouble never fails the job — the result is already
// computed and cached; it just will not survive a restart.
func (m *Manager) journalResult(key string, out *api.JobResult) {
	if m.cfg.Store == nil || !m.cfg.Store.Durable() {
		return
	}
	raw, err := json.Marshal(out)
	if err == nil {
		err = m.cfg.Store.AppendResult(key, raw)
	}
	if err != nil {
		m.journalErrs.Add(1)
		m.log.Warn("result journal append failed", "cache_key", key, "err", err)
	}
}

// observeFinish records a terminal outcome off the job and manager
// locks: the per-kind outcome counter, the stage-latency histograms
// (completed runs only — failures have no meaningful breakdown) and a
// structured lifecycle record correlated by request ID.
func (m *Manager) observeFinish(j *Job, outcome string, stages tanglefind.StageTimings) {
	m.jobsFinished.With(string(j.kind), outcome).Inc()
	if outcome == "done" {
		for stage, d := range stages {
			m.stageSeconds.With(string(j.kind), stage).Observe(d.Seconds())
		}
	}
	m.log.Info("job finished",
		"job_id", j.id, "kind", string(j.kind), "outcome", outcome,
		"request_id", j.reqID, "stages", stages.String())
}

// acquireWorkers grants a starting job its engine-goroutine share:
// min(requested, what the pool budget has free), never below 1 — a
// job always makes progress even when concurrent jobs hold the whole
// budget. requested <= 0 means "all of it" (the engine's own
// GOMAXPROCS default), so unconfigured jobs split the budget instead
// of each assuming an idle machine.
func (m *Manager) acquireWorkers(requested int) int {
	if requested <= 0 || requested > m.cfg.EngineWorkers {
		requested = m.cfg.EngineWorkers
	}
	m.grantMu.Lock()
	defer m.grantMu.Unlock()
	free := m.cfg.EngineWorkers - m.grantsInUse
	grant := requested
	if grant > free {
		grant = free
	}
	if grant < 1 {
		grant = 1
	}
	if grant < requested {
		m.grantsCapped.Add(1)
		m.grantCapC.Inc()
	} else {
		m.grantFullC.Inc()
	}
	m.grantsInUse += grant
	return grant
}

// releaseWorkers returns a finished job's grant to the budget.
func (m *Manager) releaseWorkers(grant int) {
	m.grantMu.Lock()
	m.grantsInUse -= grant
	m.grantMu.Unlock()
}

// runLint executes a lint job: incrementally against the parent's
// retained report when the digest has delta lineage and both the
// parent netlist and its report (under the same rule config) are still
// available, from scratch otherwise. The finished report is retained
// in the lint-state LRU so the next delta in the chain stays
// incremental.
func (m *Manager) runLint(j *Job, h handles, stages tanglefind.StageTimings) {
	m.lintRuns.Add(1)
	engineStart := time.Now()
	var rep *tanglefind.LintReport
	if j.parent != "" {
		if prev, ok := m.lints.get(lintKey(j.parent, j.lintCfg)); ok {
			if parentNl, _, err := m.cfg.Store.Get(j.parent); err == nil {
				rep = tanglefind.LintDelta(prev, parentNl, h.lintNl, h.dirty, j.lintCfg)
				if rep.Incremental {
					m.lintIncr.Add(1)
				}
			}
		}
	}
	if rep == nil {
		rep = tanglefind.Lint(h.lintNl, j.lintCfg)
	}
	stages.Add("engine", time.Since(engineStart))
	mergeStart := time.Now()
	m.lints.put(j.cacheKey, rep)
	out := &api.JobResult{Lint: rep}
	stages.Add("merge", time.Since(mergeStart))
	out.Stages = stages
	m.cache.put(j.cacheKey, out)
	m.journalResult(j.cacheKey, out)
	m.finishGroup(j, api.StateDone, out, "", stages, "done")
}

// lintKey is a lint job's compute identity: the digest plus the
// canonical rule configuration, shared by the result cache and the
// lint-state LRU.
func lintKey(digest string, cfg tanglefind.LintConfig) string {
	return "lint|" + digest + "|" + cfg.CacheKey()
}

// applyMitigation attaches the cluster/decompose summary for the
// non-find kinds, operating on the groups the finder detected in nl.
func (j *Job) applyMitigation(nl *tanglefind.Netlist, res *tanglefind.Result, out *api.JobResult) error {
	if j.kind == api.KindFind || j.kind == api.KindFindIncremental {
		return nil
	}
	groups := make([][]tanglefind.CellID, len(res.GTLs))
	for i := range res.GTLs {
		groups[i] = res.GTLs[i].Members
	}
	switch j.kind {
	case api.KindCluster:
		cl, err := tanglefind.Cluster(nl, groups)
		if err != nil {
			return err
		}
		out.Cluster = &api.ClusterInfo{
			Macros:     len(cl.Groups),
			MacroCells: cl.Clustered.NumCells(),
			MacroNets:  cl.Clustered.NumNets(),
		}
	case api.KindDecompose:
		rs, err := tanglefind.Decompose(nl, groups, j.maxPins)
		if err != nil {
			return err
		}
		out.Decompose = &api.DecomposeInfo{
			CellsAdded: rs.CellsAdded,
			Cells:      rs.Netlist.NumCells(),
			Nets:       rs.Netlist.NumNets(),
			Pins:       rs.Netlist.NumPins(),
		}
	}
	return nil
}

// findResult converts an engine result to its wire form. Member
// slices are shared with the engine result, which is immutable once
// returned.
func findResult(res *tanglefind.Result) *api.JobResult {
	out := &api.JobResult{
		GTLs:        make([]api.GTLInfo, 0, len(res.GTLs)),
		Candidates:  res.Candidates,
		SeedsRun:    len(res.Seeds),
		Rent:        res.Rent,
		EngineMS:    float64(res.Elapsed) / float64(time.Millisecond),
		Levels:      res.Levels,
		Incremental: res.Incremental,
		Sched:       res.Sched,
	}
	for i := range res.GTLs {
		g := &res.GTLs[i]
		out.GTLs = append(out.GTLs, api.GTLInfo{
			Size:    g.Size(),
			Cut:     g.Cut,
			Pins:    g.Pins,
			NGTLS:   g.NGTLS,
			GTLSD:   g.GTLSD,
			Rent:    g.Rent,
			Seed:    g.Seed,
			Members: g.Members,
		})
	}
	return out
}

// cacheKey canonicalizes a request's compute identity. Workers is
// zeroed because it never changes results (the engine is
// deterministic for a fixed RandSeed regardless of parallelism), so
// requests differing only in worker count share a cache line.
func cacheKey(kind api.Kind, digest string, maxPins int, opt tanglefind.Options) string {
	opt.Workers = 0
	opt.Progress = nil
	data, err := json.Marshal(opt)
	if err != nil {
		// Options is a plain struct with tagged scalar fields; this
		// cannot fail, but never let a cache key collapse to "".
		return fmt.Sprintf("%s|%s|%d|unmarshalable", kind, digest, maxPins)
	}
	return fmt.Sprintf("%s|%s|%d|%s", kind, digest, maxPins, data)
}

// incrKey addresses recorded incremental state: one slot per digest
// and result-affecting option set. A find job recorded with
// record_incremental and a later find_incremental job on a derived
// digest land on the same key family, which is exactly the chain the
// state exists for.
func incrKey(digest string, opt tanglefind.Options) string {
	return digest + "|" + opt.IncrementalKey()
}

// ---- Job state machine ----

// tryStart moves queued → running and hands the run the job's
// handles; false means the job was already finished (cancelled) and
// must not run.
func (j *Job) tryStart() (handles, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.StateQueued {
		return handles{}, false
	}
	j.state = api.StateRunning
	now := time.Now()
	j.started = &now
	j.publishLocked()
	return j.h, true
}

// queueWait reports how long the job sat between submission and its
// worker picking it up. Called by the running worker after tryStart.
func (j *Job) queueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started != nil {
		return j.started.Sub(j.created)
	}
	return time.Since(j.created)
}

// setProgress records the latest engine snapshot, fans it out, and
// forwards it to any coalesced followers. A terminal job skips its own
// record (a late callback after cancellation; subscribers are gone)
// but still forwards: a running leader cancelled out of the group
// keeps relaying progress to the followers its run is serving.
func (j *Job) setProgress(p tanglefind.Progress) {
	j.mu.Lock()
	if !j.state.Terminal() {
		cp := p
		j.progress = &cp
		j.publishLocked()
	}
	followers := append([]*Job(nil), j.followers...)
	j.mu.Unlock()
	for _, f := range followers {
		f.setProgress(p)
	}
}

// mirrorStart flips a queued follower to running at the leader's start
// time; a no-op once the follower left the queued state.
func (j *Job) mirrorStart(at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != api.StateQueued {
		return
	}
	j.state = api.StateRunning
	t := at
	j.started = &t
	j.publishLocked()
}

// finish moves the job to a terminal state exactly once, publishes
// the terminal event and closes all subscriber channels. It reports
// whether this call performed the transition (so callers count each
// outcome once).
func (j *Job) finish(state api.State, res *api.JobResult, errMsg string) bool {
	j.cancel()
	return j.finishNoCancel(state, res, errMsg)
}

// finishNoCancel is finish without cancelling the job's context — for
// the one case where a record goes terminal while its engine run must
// stay alive: a running leader cancelled out of a coalesced group. The
// record drops its handles here; a run in progress holds its own copy.
func (j *Job) finishNoCancel(state api.State, res *api.JobResult, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.h = handles{}
	j.state = state
	j.result = res
	if state != api.StateDone {
		j.errMsg = errMsg
	}
	now := time.Now()
	j.finished = &now
	j.publishLocked()
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	return true
}

// Status snapshots the job for the API.
func (j *Job) Status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := api.JobStatus{
		ID:         j.id,
		Kind:       j.kind,
		RequestID:  j.reqID,
		Digest:     j.digest,
		State:      j.state,
		Cached:     j.cached,
		Error:      j.errMsg,
		Progress:   j.progress,
		Result:     j.result,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
	}
	return st
}

// subscribe registers a fan-out channel; see Manager.Subscribe.
func (j *Job) subscribe() (chan api.Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan api.Event, 16)
	ch <- j.eventLocked() // snapshot; fresh buffer, never blocks
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
}

// eventLocked builds the current event; callers hold j.mu. Terminal
// events carry the finished result's stage breakdown so stream
// consumers get the timings without a second status fetch.
func (j *Job) eventLocked() api.Event {
	ev := api.Event{JobID: j.id, State: j.state, Progress: j.progress, Error: j.errMsg}
	if j.state.Terminal() && j.result != nil {
		ev.Stages = j.result.Stages
	}
	return ev
}

// publishLocked fans the current event out to every subscriber. Slow
// consumers lose intermediate progress events (oldest dropped), never
// the terminal event — finish publishes after the last progress and
// nothing else writes afterwards.
func (j *Job) publishLocked() {
	ev := j.eventLocked()
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}
