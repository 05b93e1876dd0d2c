// Package jobs runs detection work over registered netlists: a
// bounded queue of engine runs feeding a fixed worker pool, each run a
// Finder pass (optionally followed by the cluster/decompose
// mitigation) with its own cancellation context and optional compute
// deadline, a digest+options result cache so identical requests are
// answered without touching the engine, and per-job records moving
// queued → running → done/failed/cancelled with progress fan-out to
// any number of subscribers.
//
// A run serves every job that asked for it: a submission identical to
// a queued or running run (same compute identity and timeout) attaches
// to that run as a job of its own instead of queueing a second one.
// Cancelling a job detaches only that job; the run is cancelled when
// its last job is.
//
// Everything here speaks the facade (package tanglefind) and the wire
// types (package api); no internal/core import is needed.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"strconv"
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
	// Workers is the number of concurrent runs (default 2). Each run
	// is itself internally parallel per its Options.Workers.
	Workers int
	// EngineWorkers is the pool-wide budget of engine goroutines
	// shared by all concurrently running jobs (default GOMAXPROCS).
	// Each run is granted min(its requested Options.Workers, what the
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
	// MaxJobs bounds retained terminal job records; the oldest are
	// retired past this (default 1024). Live records are never retired.
	MaxJobs int
	// Logger receives structured job-lifecycle records (queued,
	// finished — with the submitting request's ID and the stage
	// durations). Nil discards.
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
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
}

// Manager owns the queue of runs, the worker pool, the job records and
// the caches. Construct with New, dispose with Shutdown.
//
// The queue is an explicit pending list (not a channel) so that a run
// cancelled while queued frees its slot immediately — cancelled runs
// must not hold QueueDepth against live submissions. Every job count
// is kept once, here; Stats reads them and the /metrics families
// mirror Stats at scrape time.
type Manager struct {
	cfg   Config
	reg   *telemetry.Registry
	log   *slog.Logger
	cache *lru[*api.JobResult]
	incr  *lru[*tanglefind.Result]
	wg    sync.WaitGroup

	// mu guards the queue, the records, every run's job list and start
	// time, and every job's run pointer. Each job leaves its run and
	// turns terminal under mu, so a job with a run is live.
	mu      sync.Mutex
	cond    *sync.Cond // signals workers that pending grew or closed flipped
	pending []*run     // runs awaiting a worker, FIFO
	// inflight is the single-flight table: run.flight → the queued or
	// running run that serves every identical submission. A run leaves
	// it when it finishes or loses its last job, so a submission can
	// never attach to a run that will not publish to it.
	inflight map[string]*run
	jobs     map[string]*Job
	order    []string // submission order, for listing and retirement
	live     int      // records with a run
	closed   bool
	// Submission counts. Job ids are numbered in acceptance order, so
	// the last id issued is the number of accepted submissions.
	lastID    int64
	cacheHits int64
	coalesced int64
	// finished counts jobs that reached a terminal state other than by
	// a cache hit; runsByLevel counts engine runs by the hierarchy
	// levels they used (1 = flat).
	finished    map[finishKey]int64
	runsByLevel map[int]int64

	incrRuns      atomic.Int64
	incrFallbacks atomic.Int64
	lintRuns      atomic.Int64
	lintIncr      atomic.Int64
	rewarmed      atomic.Int64
	journalErrs   atomic.Int64

	// testMitigationErr, when set by a test, is returned by the
	// mitigation step of every run — the seam for pinning the
	// "failed job must not prime caches" invariants, since Cluster/
	// Decompose cannot be made to fail through the public API.
	testMitigationErr error

	// grantMu guards the engine-worker budget (see Config.EngineWorkers)
	// and the count of grants made from it, one per engine run.
	grantMu      sync.Mutex
	grantsInUse  int
	engineRuns   int64
	grantsCapped int64

	stageSeconds *telemetry.HistogramVec
}

// finishKey labels a terminal outcome.
type finishKey struct {
	kind  api.Kind
	state api.State
}

// New starts a manager and its worker pool. When the store recovered
// journaled job results at startup (durable serving), they are
// rewarmed into the result cache before the first submission, so a
// restart does not turn yesterday's cache hits into engine runs.
func New(cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:         cfg,
		reg:         telemetry.NewRegistry(),
		log:         cfg.Logger,
		cache:       newLRU[*api.JobResult](cfg.CacheResults),
		incr:        newLRU[*tanglefind.Result](cfg.IncrStates),
		inflight:    make(map[string]*run),
		jobs:        make(map[string]*Job),
		finished:    make(map[finishKey]int64),
		runsByLevel: make(map[int]int64),
	}
	m.cond = sync.NewCond(&m.mu)
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
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// registerMetrics declares the manager's metric families. The stage
// histogram is observed as runs and jobs finish; every counter and
// gauge is copied from the manager's own counts at scrape time, through
// Stats where it reports them, so GET /metrics and GET /v1/stats can
// never disagree.
func (m *Manager) registerMetrics() {
	reg := m.reg
	m.stageSeconds = reg.HistogramVec("gtl_job_stage_seconds",
		"Completed-job stage latency in seconds by job kind and stage: queue_wait, engine, merge, plus the engine's own engine_* phases.",
		nil, "kind", "stage")
	finished := reg.CounterVec("gtl_jobs_finished_total",
		"Jobs reaching a terminal state by running, by kind and outcome (done, failed, cancelled). Cache hits are not counted here.",
		"kind", "outcome")
	cache := reg.CounterVec("gtl_job_cache_total",
		"Result-cache consultations for accepted submissions, by outcome (hit, miss).", "result")
	grants := reg.CounterVec("gtl_worker_grants_total",
		"Engine-worker grants at job start, by outcome: full means the request fit the pool budget, capped means it was trimmed.", "outcome")
	submitted := reg.Counter("gtl_jobs_submitted_total", "Accepted job submissions (including cache hits) since process start.")
	cacheHits := reg.Counter("gtl_job_cache_hits_total", "Submissions answered from the result cache without engine work.")
	engineRuns := reg.Counter("gtl_engine_runs_total", "Jobs that actually ran the finder engine.")
	incrRuns := reg.Counter("gtl_incremental_runs_total", "find_incremental engine runs started.")
	incrFallbacks := reg.Counter("gtl_incremental_fallbacks_total", "Incremental runs that degraded to a full re-detection.")
	lintRuns := reg.Counter("gtl_lint_runs_total", "Completed lint engine runs.")
	lintIncr := reg.Counter("gtl_lint_incremental_total", "Lint runs answered incrementally from a parent report.")
	coalesced := reg.Counter("gtl_jobs_coalesced_total", "Submissions attached to an identical queued or running run instead of starting their own.")
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
		cache.With("hit").Set(float64(st.CacheHits))
		cache.With("miss").Set(float64(st.Submitted - st.CacheHits))
		engineRuns.Set(float64(st.EngineRuns))
		grants.With("full").Set(float64(st.EngineRuns - st.WorkerGrantsCapped))
		grants.With("capped").Set(float64(st.WorkerGrantsCapped))
		incrRuns.Set(float64(st.IncrementalRuns))
		incrFallbacks.Set(float64(st.IncrementalFallbacks))
		lintRuns.Set(float64(st.LintRuns))
		lintIncr.Set(float64(st.LintIncremental))
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
		m.mu.Lock()
		for k, n := range m.finished {
			finished.With(string(k.kind), string(k.state)).Set(float64(n))
		}
		m.mu.Unlock()
	})
}

// Job is one submission's record. The identity fields are immutable
// after Submit; run is guarded by the manager's mu, everything else by
// the job's own mu.
type Job struct {
	id   string
	kind api.Kind
	// reqID is the HTTP request ID that submitted the job, carried
	// through statuses and logs so one curl correlates end to end.
	reqID   string
	digest  string
	created time.Time
	// run is the engine execution serving the job. It is nil once the
	// job is terminal (and always for a cache hit), so finished records
	// — retained up to MaxJobs — never keep an engine or netlist
	// reachable.
	run *run

	mu       sync.Mutex
	state    api.State
	cached   bool
	errMsg   string
	result   *api.JobResult
	progress *tanglefind.Progress
	started  *time.Time
	finished *time.Time
	subs     map[int]chan api.Event
	nextSub  int
}

// run is one engine execution: what to compute, the store handles and
// context it computes with, and the jobs it serves. The fields from
// started down are guarded by the manager's mu.
type run struct {
	kind     api.Kind
	digest   string
	opt      tanglefind.Options
	maxPins  int
	timeout  time.Duration
	cacheKey string // result-cache identity
	// flight is the single-flight identity: cacheKey plus the timeout
	// and RecordIncremental, so a recording submission never rides a
	// run that records nothing.
	flight string
	// Incremental and lint runs resolve their lineage parent at submit
	// time; the parent's recorded state is looked up when the run
	// starts (it may still be computing while this run is queued).
	parent  string
	lintCfg tanglefind.LintConfig
	h       handles
	ctx     context.Context
	cancel  context.CancelFunc

	started time.Time // zero while queued
	jobs    []*Job    // the live jobs the run serves
}

// handles are a run's references into the store: the shared engine
// (find kinds) or the netlist (lint), plus the dirty cells of the
// digest's delta lineage. Only a run that will queue resolves them.
type handles struct {
	finder *tanglefind.Finder
	lintNl *tanglefind.Netlist
	dirty  []tanglefind.CellID
}

// Submit validates a request against the digest's metadata, consults
// the result cache, and either answers from cache (state done, Cached
// true, no engine work), attaches the job to an identical queued or
// running run, or resolves the store handles and queues a new run. The
// returned status is the job's state at return time. A cached result
// stays servable after its netlist is evicted: only a run needs the
// netlist.
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
	r := &run{
		opt:      opt,
		maxPins:  maxPins,
		cacheKey: cacheKey(req.Kind, req.Digest, maxPins, opt),
		parent:   parent,
	}
	return m.accept(req, r, func() (handles, error) {
		finder, _, err := m.cfg.Store.Engine(req.Digest)
		return handles{finder: finder, dirty: dirty}, err
	})
}

// submitLint validates a lint request and builds its run. Lint runs
// use the raw netlist (no finder engine) and key the result cache on
// the canonical rule configuration; a digest with delta lineage also
// records its parent so the run can lint incrementally.
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
	r := &run{
		cacheKey: lintKey(req.Digest, cfg),
		lintCfg:  cfg,
		parent:   parent,
	}
	return m.accept(req, r, func() (handles, error) {
		nl, _, err := m.cfg.Store.Get(req.Digest)
		return handles{lintNl: nl, dirty: dirty}, err
	})
}

// accept completes the candidate run r with the request's identity,
// makes the job's record, hands both to enqueue and, off the manager
// lock, emits the structured submission record. resolve fetches r's
// handles from the store; it is called only if r will queue.
func (m *Manager) accept(req api.JobRequest, r *run, resolve func() (handles, error)) (api.JobStatus, error) {
	r.kind, r.digest = req.Kind, req.Digest
	r.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	r.flight = fmt.Sprintf("%s|%d|%t", r.cacheKey, r.timeout, r.opt.RecordIncremental)
	j := &Job{
		kind:    req.Kind,
		reqID:   req.RequestID,
		digest:  req.Digest,
		created: time.Now(),
		state:   api.StateQueued,
		subs:    make(map[int]chan api.Event),
	}
	st, err := m.enqueue(j, r, resolve)
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

// enqueue answers the job without a new run when it can (answerLocked)
// and otherwise queues r with the job attached. The run's handles are
// resolved only on that last path, outside m.mu — a store reload
// re-parses a blob — after which the cache and the single-flight table
// are consulted again, since an identical run may have finished or
// started in between.
func (m *Manager) enqueue(j *Job, r *run, resolve func() (handles, error)) (api.JobStatus, error) {
	m.mu.Lock()
	st, answered, err := m.answerLocked(j, r)
	m.mu.Unlock()
	if answered {
		return st, err
	}
	h, err := resolve()
	if err != nil {
		return api.JobStatus{}, err
	}
	r.h = h

	m.mu.Lock()
	defer m.mu.Unlock()
	if st, answered, err := m.answerLocked(j, r); answered {
		return st, err
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	m.pending = append(m.pending, r)
	m.inflight[r.flight] = r
	m.cond.Signal()
	m.attachLocked(j, r)
	return j.Status(), nil
}

// answerLocked settles a submission that needs no new run: refused
// when the manager is closed or the queue is full, answered from the
// result cache (state done, Cached true), or attached to an identical
// queued or running run. It reports false when r must queue. Callers
// hold m.mu.
func (m *Manager) answerLocked(j *Job, r *run) (api.JobStatus, bool, error) {
	if m.closed {
		return api.JobStatus{}, true, ErrClosed
	}

	// A recorded run's purpose includes (re)priming the incremental
	// state cache; if its state has been evicted from the bounded LRU,
	// the cached wire result alone cannot do that — skip the shortcut
	// and run the engine again.
	statePrimed := false
	if r.opt.RecordIncremental {
		_, statePrimed = m.incr.get(incrKey(r.digest, r.opt))
	}
	if res, ok := m.cache.get(r.cacheKey); ok && (!r.opt.RecordIncremental || statePrimed) {
		// This compute identity was already computed: serve the
		// cached result without consuming a queue slot or worker. The
		// hit gets its own shallow copy of the result: engine stages
		// carry over (they describe the run that produced the data,
		// clearly attributed by Cached=true), but queue_wait is the
		// hit's own, effectively zero.
		m.lastID++
		m.cacheHits++
		j.id = fmt.Sprintf("job-%06d", m.lastID)
		now := time.Now()
		hit := *res
		hit.Stages = ownQueueWait(res.Stages, now.Sub(j.created))
		j.state = api.StateDone
		j.cached = true
		j.result = &hit
		j.finished = &now
		m.addJobLocked(j)
		return j.Status(), true, nil
	}

	// Single-flight: an identical run already queued or running serves
	// this submission too — its own job id, stream and completion, no
	// queue slot, no second engine run.
	if live := m.inflight[r.flight]; live != nil {
		m.coalesced++
		m.attachLocked(j, live)
		return j.Status(), true, nil
	}

	if len(m.pending) >= m.cfg.QueueDepth {
		return api.JobStatus{}, true, ErrQueueFull
	}
	return api.JobStatus{}, false, nil
}

// attachLocked numbers the job, adds it to run r and records it. A job
// attaching to a run already underway waited for nothing, and its
// state says so immediately. Callers hold m.mu.
func (m *Manager) attachLocked(j *Job, r *run) {
	m.lastID++
	j.id = fmt.Sprintf("job-%06d", m.lastID)
	j.run = r
	r.jobs = append(r.jobs, j)
	m.live++
	if !r.started.IsZero() {
		now := time.Now()
		j.state = api.StateRunning
		j.started = &now
	}
	m.addJobLocked(j)
}

// ownQueueWait copies a finished run's stage breakdown for one job:
// the engine and merge stages carry over (they describe the run that
// produced the data), and queue_wait is the job's own.
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
// while more than MaxJobs are retained, skipping live ones. Callers
// hold m.mu.
func (m *Manager) addJobLocked(j *Job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	for i := 0; len(m.order)-m.live > m.cfg.MaxJobs; {
		if m.jobs[m.order[i]].run != nil {
			i++
			continue
		}
		delete(m.jobs, m.order[i])
		m.order = slices.Delete(m.order, i, i+1)
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
		js = append(js, m.jobs[m.order[i]])
	}
	m.mu.Unlock()
	out := make([]api.JobStatus, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	return out
}

// Cancel stops one job: it leaves its run and turns cancelled at once
// ("cancelled before start" if the run was still queued). The run goes
// on serving its other jobs; when none is left, its context is
// cancelled and it leaves the queue and the single-flight table, which
// frees a queued run's slot and a running run's worker. Cancel is a
// no-op on terminal jobs.
func (m *Manager) Cancel(id string) (api.JobStatus, error) {
	m.mu.Lock()
	j := m.jobs[id]
	if j == nil {
		m.mu.Unlock()
		return api.JobStatus{}, ErrNoJob
	}
	r := j.run
	if r != nil {
		r.jobs = slices.DeleteFunc(r.jobs, func(o *Job) bool { return o == j })
		if len(r.jobs) == 0 {
			m.dropLocked(r)
		}
		msg := "cancelled"
		if r.started.IsZero() {
			msg = "cancelled before start"
		}
		m.settleLocked(j, api.StateCancelled, nil, msg)
	}
	m.mu.Unlock()
	if r != nil {
		m.logFinish(j)
	}
	return j.Status(), nil
}

// dropLocked cancels run r's context and removes the run from the
// queue and the single-flight table. Callers hold m.mu.
func (m *Manager) dropLocked(r *run) {
	r.cancel()
	if m.inflight[r.flight] == r {
		delete(m.inflight, r.flight)
	}
	if i := slices.Index(m.pending, r); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1) // zeroes the vacated tail slot
	}
}

// settleLocked detaches a live job from its run, moves it to a
// terminal state and counts the outcome. Callers hold m.mu.
func (m *Manager) settleLocked(j *Job, state api.State, res *api.JobResult, errMsg string) {
	j.run = nil
	m.live--
	j.finish(state, res, errMsg)
	m.finished[finishKey{j.kind, state}]++
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
		IncrementalRuns:      m.incrRuns.Load(),
		IncrementalFallbacks: m.incrFallbacks.Load(),
		LintRuns:             m.lintRuns.Load(),
		LintIncremental:      m.lintIncr.Load(),
		CachedSets:           m.cache.len(),
		RewarmedResults:      m.rewarmed.Load(),
		JournalErrors:        m.journalErrs.Load(),
	}
	// A replayed seed's record shares its footprint and orderings with
	// the previous state of its chain; count them once.
	var states []*tanglefind.IncrementalState
	m.incr.each(func(res *tanglefind.Result) { states = append(states, res.IncrState) })
	st.IncrStateBytes = tanglefind.IncrementalStatesMemory(states...)
	m.grantMu.Lock()
	st.EngineRuns, st.WorkerGrantsCapped = m.engineRuns, m.grantsCapped
	m.grantMu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	st.Submitted, st.CacheHits, st.CoalescedJobs = m.lastID, m.cacheHits, m.coalesced
	for k, n := range m.finished {
		switch k.state {
		case api.StateDone:
			st.Completed += n
		case api.StateFailed:
			st.Failed += n
		case api.StateCancelled:
			st.Cancelled += n
		}
	}
	if len(m.runsByLevel) > 0 {
		st.RunsByLevels = make(map[string]int64, len(m.runsByLevel))
		for lv, n := range m.runsByLevel {
			st.RunsByLevels[fmt.Sprintf("%d", lv)] = n
		}
	}
	st.QueueDepth = len(m.pending)
	for _, j := range m.jobs {
		if j.run == nil {
			continue
		}
		if j.run.started.IsZero() {
			st.Queued++
		} else {
			st.Running++
		}
		if st.InFlightByKind == nil {
			st.InFlightByKind = make(map[string]int)
		}
		st.InFlightByKind[string(j.kind)]++
	}
	return st
}

// Shutdown drains the manager: no new submissions, queued and running
// jobs keep going until done. If ctx expires first, every remaining
// run is cancelled and Shutdown still waits for the workers to return
// before reporting the deadline error.
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
			if j.run != nil {
				j.run.cancel()
			}
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker consumes the pending list until it is empty after Shutdown —
// runs queued before the shutdown still drain.
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
		r := m.pending[0]
		m.pending[0] = nil // the backing array must not keep r reachable
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.execute(r)
	}
}

// execute carries one run from start to its jobs' terminal states.
func (m *Manager) execute(r *run) {
	m.mu.Lock()
	if r.ctx.Err() != nil {
		// Cancelled while queued: by its last job (none is left) or by a
		// forced shutdown (its jobs go down with it).
		m.mu.Unlock()
		m.finishRun(r, api.StateCancelled, nil, "cancelled before start")
		return
	}
	r.started = time.Now()
	for _, j := range r.jobs {
		j.start(r.started)
	}
	m.mu.Unlock()

	if r.kind == api.KindLint {
		m.runLint(r)
		return
	}
	ctx, cancel := r.ctx, func() {}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	}
	defer cancel()

	opt := r.opt
	opt.Progress = func(p tanglefind.Progress) {
		m.mu.Lock()
		for _, j := range r.jobs {
			j.setProgress(p)
		}
		m.mu.Unlock()
	}
	opt.Workers = m.acquireWorkers(opt.Workers)
	defer m.releaseWorkers(opt.Workers)
	stages := tanglefind.StageTimings{}
	engineStart := time.Now()
	var res *tanglefind.Result
	var err error
	if r.kind == api.KindFindIncremental {
		// The parent's recorded state is optional: absent (never run,
		// evicted from the bounded state cache, or recorded under
		// different options) the engine degrades to a full run and
		// reports the fallback in the result breakdown.
		prev, _ := m.incr.get(incrKey(r.parent, r.opt))
		m.incrRuns.Add(1)
		res, err = r.h.finder.FindIncremental(ctx, opt, prev, r.h.dirty)
		if res != nil && res.Incremental != nil && res.Incremental.FullFallback {
			m.incrFallbacks.Add(1)
		}
	} else {
		res, err = r.h.finder.Find(ctx, opt)
	}
	stages.Add("engine", time.Since(engineStart))
	mergeStart := time.Now()
	if res != nil {
		// Count by the levels the run actually used: a Levels=4 request
		// over a small netlist may coarsen less than asked (or not at
		// all), and that is what operators need to see.
		used := max(len(res.Levels), 1)
		m.mu.Lock()
		m.runsByLevel[used]++
		m.mu.Unlock()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			m.finishRun(r, api.StateCancelled, nil, "cancelled")
		} else { // deadline exceeded or an engine error
			m.finishRun(r, api.StateFailed, nil, err.Error())
		}
		return
	}
	out := findResult(res)
	mitErr := m.testMitigationErr
	if mitErr == nil {
		mitErr = r.applyMitigation(r.h.finder.Netlist(), res, out)
	}
	if mitErr != nil {
		m.finishRun(r, api.StateFailed, nil, mitErr.Error())
		return
	}
	// Only a run that is known good primes the incremental-state
	// cache: a job that fails mitigation after a clean detection pass
	// must leave no state behind, or the next identical submission
	// would be served (or incrementally seeded) by a failed job.
	if res.IncrState != nil {
		m.incr.put(incrKey(r.digest, r.opt), res)
	}
	for name, d := range res.Stages {
		stages.Add("engine_"+name, d)
	}
	stages.Add("merge", time.Since(mergeStart))
	m.complete(r, out, stages)
}

// complete publishes a run's finished result: into the result cache
// and the journal, into the stage histograms (once per run; finishRun
// adds each job's own queue wait), and to every job the run serves.
func (m *Manager) complete(r *run, out *api.JobResult, stages tanglefind.StageTimings) {
	// The breakdown must be complete before the cache put: cached
	// JobResult pointers are shared across submissions and immutable.
	out.Stages = stages
	m.cache.put(r.cacheKey, out)
	m.journalResult(r.cacheKey, out)
	for stage, d := range stages {
		m.stageSeconds.With(string(r.kind), stage).Observe(d.Seconds())
	}
	m.finishRun(r, api.StateDone, out, "")
}

// finishRun drives every job run r serves to a terminal state. The
// single-flight entry is cleared in the same critical section, so no
// submission can attach once the run starts finishing. Given a result,
// each job gets a shallow copy carrying its own queue_wait, which the
// stage histogram records.
func (m *Manager) finishRun(r *run, state api.State, out *api.JobResult, errMsg string) {
	m.mu.Lock()
	m.dropLocked(r)
	js := r.jobs
	r.jobs = nil
	for _, j := range js {
		var res *api.JobResult
		if out != nil {
			wait := max(r.started.Sub(j.created), 0)
			m.stageSeconds.With(string(j.kind), "queue_wait").Observe(wait.Seconds())
			cp := *out
			cp.Stages = ownQueueWait(out.Stages, wait)
			res = &cp
		}
		m.settleLocked(j, state, res, errMsg)
	}
	m.mu.Unlock()
	for _, j := range js {
		m.logFinish(j)
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

// logFinish emits a settled job's structured lifecycle record,
// correlated by request ID, off the manager lock.
func (m *Manager) logFinish(j *Job) {
	st := j.Status()
	var stages tanglefind.StageTimings
	if st.Result != nil {
		stages = st.Result.Stages
	}
	m.log.Info("job finished",
		"job_id", j.id, "kind", string(j.kind), "outcome", string(st.State),
		"request_id", j.reqID, "stages", stages.String())
}

// acquireWorkers grants a starting run its engine-goroutine share:
// min(requested, what the pool budget has free), never below 1 — a
// run always makes progress even when concurrent runs hold the whole
// budget. requested <= 0 means "all of it" (the engine's own
// GOMAXPROCS default), so unconfigured jobs split the budget instead
// of each assuming an idle machine.
func (m *Manager) acquireWorkers(requested int) int {
	if requested <= 0 || requested > m.cfg.EngineWorkers {
		requested = m.cfg.EngineWorkers
	}
	m.grantMu.Lock()
	defer m.grantMu.Unlock()
	grant := max(min(requested, m.cfg.EngineWorkers-m.grantsInUse), 1)
	m.engineRuns++
	if grant < requested {
		m.grantsCapped++
	}
	m.grantsInUse += grant
	return grant
}

// releaseWorkers returns a finished run's grant to the budget.
func (m *Manager) releaseWorkers(grant int) {
	m.grantMu.Lock()
	m.grantsInUse -= grant
	m.grantMu.Unlock()
}

// runLint executes a lint run: incrementally against the parent's
// report when the digest has delta lineage and both the parent netlist
// and its report (under the same rule config) are still available,
// from scratch otherwise. The parent's report is its lint job's
// result, so it comes from the result cache — and, on a durable store,
// survives a restart with it.
func (m *Manager) runLint(r *run) {
	m.lintRuns.Add(1)
	stages := tanglefind.StageTimings{}
	engineStart := time.Now()
	var rep *tanglefind.LintReport
	if r.parent != "" {
		if prev, ok := m.cache.get(lintKey(r.parent, r.lintCfg)); ok && prev.Lint != nil {
			if parentNl, _, err := m.cfg.Store.Get(r.parent); err == nil {
				rep = tanglefind.LintDelta(prev.Lint, parentNl, r.h.lintNl, r.h.dirty, r.lintCfg)
				if rep.Incremental {
					m.lintIncr.Add(1)
				}
			}
		}
	}
	if rep == nil {
		rep = tanglefind.Lint(r.h.lintNl, r.lintCfg)
	}
	stages.Add("engine", time.Since(engineStart))
	mergeStart := time.Now()
	out := &api.JobResult{Lint: rep}
	stages.Add("merge", time.Since(mergeStart))
	m.complete(r, out, stages)
}

// lintKey is a lint job's compute identity: the digest plus the
// canonical rule configuration.
func lintKey(digest string, cfg tanglefind.LintConfig) string {
	return "lint|" + digest + "|" + cfg.CacheKey()
}

// applyMitigation attaches the cluster/decompose summary for the
// non-find kinds, operating on the groups the finder detected in nl.
func (r *run) applyMitigation(nl *tanglefind.Netlist, res *tanglefind.Result, out *api.JobResult) error {
	if r.kind == api.KindFind || r.kind == api.KindFindIncremental {
		return nil
	}
	groups := make([][]tanglefind.CellID, len(res.GTLs))
	for i := range res.GTLs {
		groups[i] = res.GTLs[i].Members
	}
	switch r.kind {
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
		rs, err := tanglefind.Decompose(nl, groups, r.maxPins)
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

// cacheKey is a find-family request's compute identity: kind, digest,
// decompose pin cap and Options.Key, so requests that differ only in
// what the run never reads (worker count, recording, a flat run's
// coarsening fields) share a cache line.
func cacheKey(kind api.Kind, digest string, maxPins int, opt tanglefind.Options) string {
	return string(kind) + "|" + digest + "|" + strconv.Itoa(maxPins) + "|" + opt.Key()
}

// incrKey addresses recorded incremental state: one slot per digest
// and Options.Key. A find job recorded with record_incremental and a
// later find_incremental job on a derived digest land on the same key
// family, which is exactly the chain the state exists for.
func incrKey(digest string, opt tanglefind.Options) string {
	return digest + "|" + opt.Key()
}

// ---- Job state machine ----

// start moves a queued job to running at its run's start time.
func (j *Job) start(at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.StateRunning
	j.started = &at
	j.publishLocked()
}

// setProgress records the latest engine snapshot and fans it out.
func (j *Job) setProgress(p tanglefind.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = &p
	j.publishLocked()
}

// finish moves a live job to a terminal state, publishes the terminal
// event and closes all subscriber channels.
func (j *Job) finish(state api.State, res *api.JobResult, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
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
}

// Status snapshots the job for the API.
func (j *Job) Status() api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobStatus{
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
