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
// Files follow the layers: this one holds the Config, the Manager and
// its counts; queue.go submission and the workers; run.go execution,
// settlement and cancel; result.go result shaping and cache keys;
// job.go the job records and their state machine.
//
// Everything here speaks the facade (package tanglefind) and the wire
// types (package api); no internal/core import is needed.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"runtime"
	"sync"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/store"
	"tanglefind/internal/telemetry"
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
// is kept once, in counts; Stats reads them and the /metrics families
// mirror Stats at scrape time.
type Manager struct {
	cfg   Config
	reg   *telemetry.Registry
	log   *slog.Logger
	cache *lru[*api.JobResult]
	incr  *lru[*tanglefind.Result]
	wg    sync.WaitGroup

	// mu guards the queue, the records, every run's job list and start
	// time, every job's run pointer, and counts. Each job leaves its
	// run and turns terminal under mu, so a job with a run is live.
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
	counts   counts

	// testMitigationErr, when set by a test, is returned by the
	// mitigation step of every run — the seam for pinning the
	// "failed job must not prime caches" invariants, since Cluster/
	// Decompose cannot be made to fail through the public API.
	testMitigationErr error

	stageSeconds *telemetry.HistogramVec
}

// counts are the manager's cumulative counts since process start and
// the engine-worker budget in use, all guarded by Manager.mu. Job ids
// are numbered in acceptance order, so lastID is the number of accepted
// submissions. finished leaves out cache hits; runsByLevel keys engine
// runs by the hierarchy levels they used (1 = flat).
type counts struct {
	lastID, cacheHits, coalesced int64
	finished                     map[finishKey]int64
	runsByLevel                  map[int]int64
	engineRuns, grantsCapped     int64 // grants made from the budget, and those trimmed to fit it
	grantsInUse                  int   // engine goroutines granted to running runs
	incrRuns, incrFallbacks      int64
	lintRuns, lintIncr           int64
	rewarmed, journalErrs        int64
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
		cfg:      cfg,
		reg:      telemetry.NewRegistry(),
		log:      cfg.Logger,
		cache:    newLRU[*api.JobResult](cfg.CacheResults),
		incr:     newLRU[*tanglefind.Result](cfg.IncrStates),
		inflight: make(map[string]*run),
		jobs:     make(map[string]*Job),
		counts: counts{
			finished:    make(map[finishKey]int64),
			runsByLevel: make(map[int]int64),
		},
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
			m.counts.rewarmed++
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
		for _, k := range api.Kinds() {
			inFlight.With(string(k)).Set(float64(st.InFlightByKind[string(k)]))
		}
		for lv, n := range st.RunsByLevels {
			byLevels.With(lv).Set(float64(n))
		}
		m.mu.Lock()
		for k, n := range m.counts.finished {
			finished.With(string(k.kind), string(k.state)).Set(float64(n))
		}
		m.mu.Unlock()
	})
}

// Stats reports cumulative counters and current queue occupancy. The
// caches are read under their own locks; every count and the queue
// occupancy are copied in one critical section.
func (m *Manager) Stats() api.JobStats {
	st := api.JobStats{CachedSets: m.cache.len()}
	// A replayed seed's record shares its footprint and orderings with
	// the previous state of its chain; count them once.
	var states []*tanglefind.IncrementalState
	m.incr.each(func(res *tanglefind.Result) { states = append(states, res.IncrState) })
	st.IncrStateBytes = tanglefind.IncrementalStatesMemory(states...)

	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	st.Submitted, st.CacheHits, st.CoalescedJobs = c.lastID, c.cacheHits, c.coalesced
	st.EngineRuns, st.WorkerGrantsCapped = c.engineRuns, c.grantsCapped
	st.IncrementalRuns, st.IncrementalFallbacks = c.incrRuns, c.incrFallbacks
	st.LintRuns, st.LintIncremental = c.lintRuns, c.lintIncr
	st.RewarmedResults, st.JournalErrors = c.rewarmed, c.journalErrs
	for k, n := range c.finished {
		switch k.state {
		case api.StateDone:
			st.Completed += n
		case api.StateFailed:
			st.Failed += n
		case api.StateCancelled:
			st.Cancelled += n
		}
	}
	if len(c.runsByLevel) > 0 {
		st.RunsByLevels = make(map[string]int64, len(c.runsByLevel))
		for lv, n := range c.runsByLevel {
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
