package jobs

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/store"
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
	// options).
	ErrBadRequest = errors.New("jobs: bad request")
)

// Submit validates a request against the digest's metadata, consults
// the result cache, and either answers from cache (state done, Cached
// true, no engine work), attaches the job to an identical queued or
// running run, or resolves the store handles and queues a new run. The
// returned status is the job's state at return time. A cached result
// stays servable after its netlist is evicted: only a run needs the
// netlist.
//
// Every kind is checked in one order: kind, digest, options (a lint
// run's rule configuration, the finder options otherwise), lineage,
// decompose pin cap, timeout. The digest's delta lineage names the
// parent whose recorded state a find_incremental run replays and whose
// report a lint run lints incrementally against.
func (m *Manager) Submit(req api.JobRequest) (api.JobStatus, error) {
	if !req.Kind.Valid() {
		kinds := api.Kinds()
		names := make([]string, len(kinds))
		for i, k := range kinds {
			names[i] = string(k)
		}
		last := len(names) - 1
		return api.JobStatus{}, fmt.Errorf("%w: unknown kind %q (want %s or %s)", ErrBadRequest, req.Kind, strings.Join(names[:last], ", "), names[last])
	}
	if _, ok := m.cfg.Store.Info(req.Digest); !ok {
		return api.JobStatus{}, store.ErrNotFound
	}
	r := &run{kind: req.Kind, digest: req.Digest, timeout: time.Duration(req.TimeoutMS) * time.Millisecond}
	var err error
	if r.kind == api.KindLint {
		r.lintCfg, err = tanglefind.ParseLintConfig(req.Lint)
	} else {
		r.opt, err = tanglefind.ParseOptions(req.Options)
	}
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if lin, ok := m.cfg.Store.Lineage(req.Digest); ok {
		r.parent, r.h.dirty = lin.Parent, lin.Dirty
	} else if r.kind == api.KindFindIncremental {
		return api.JobStatus{}, fmt.Errorf("%w: digest %s has no delta lineage (POST a delta first, or use kind \"find\")", ErrBadRequest, req.Digest)
	}
	if r.kind == api.KindFindIncremental {
		// Record state on the child run too, so chains of deltas keep
		// reusing work without a priming full run per step.
		r.opt.RecordIncremental = true
	}
	if r.kind == api.KindDecompose {
		if r.maxPins = cmp.Or(req.MaxPins, 3); r.maxPins < 2 {
			return api.JobStatus{}, fmt.Errorf("%w: max_pins must be at least 2, got %d", ErrBadRequest, r.maxPins)
		}
	}
	if req.TimeoutMS < 0 {
		return api.JobStatus{}, fmt.Errorf("%w: timeout_ms must be non-negative", ErrBadRequest)
	}
	if r.kind == api.KindLint {
		r.cacheKey = lintKey(r.digest, r.lintCfg)
	} else {
		r.cacheKey = cacheKey(r.kind, r.digest, r.maxPins, r.opt)
	}
	r.flight = fmt.Sprintf("%s|%d|%t", r.cacheKey, r.timeout, r.opt.RecordIncremental)

	j := &Job{
		kind:    req.Kind,
		reqID:   req.RequestID,
		digest:  req.Digest,
		created: time.Now(),
		state:   api.StateQueued,
		subs:    make(map[int]chan api.Event),
	}
	st, err := m.enqueue(j, r)
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
// and otherwise queues r with the job attached. The run's store handle
// (the netlist for lint, the shared engine otherwise) is resolved only
// on that last path, outside m.mu — a store reload re-parses a blob —
// after which the cache and the single-flight table are consulted
// again, since an identical run may have finished or started in
// between.
func (m *Manager) enqueue(j *Job, r *run) (api.JobStatus, error) {
	m.mu.Lock()
	st, answered, err := m.answerLocked(j, r)
	m.mu.Unlock()
	if answered {
		return st, err
	}
	if r.kind == api.KindLint {
		r.h.lintNl, _, err = m.cfg.Store.Get(r.digest)
	} else {
		r.h.finder, _, err = m.cfg.Store.Engine(r.digest)
	}
	if err != nil {
		return api.JobStatus{}, err
	}

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
		m.counts.lastID++
		m.counts.cacheHits++
		j.id = fmt.Sprintf("job-%06d", m.counts.lastID)
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
		m.counts.coalesced++
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
	m.counts.lastID++
	j.id = fmt.Sprintf("job-%06d", m.counts.lastID)
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
