package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"time"

	"tanglefind"
	"tanglefind/api"
)

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
// digest's delta lineage. Only a run that will queue resolves the
// engine or netlist.
type handles struct {
	finder *tanglefind.Finder
	lintNl *tanglefind.Netlist
	dirty  []tanglefind.CellID
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
	m.counts.finished[finishKey{j.kind, state}]++
}

// execute carries one run from start to its jobs' terminal states:
// the compute step, then one cancelled, failed or done tail for every
// kind.
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

	ctx, cancel := r.ctx, func() {}
	if r.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
	}
	defer cancel()
	stages := tanglefind.StageTimings{}
	out, err := m.compute(ctx, r, stages)
	switch {
	case errors.Is(err, context.Canceled):
		m.finishRun(r, api.StateCancelled, nil, "cancelled")
	case err != nil: // deadline exceeded, an engine error or a failed mitigation
		m.finishRun(r, api.StateFailed, nil, err.Error())
	default:
		m.complete(r, out, stages)
	}
}

// compute is a run's engine step and the shaping of its wire result,
// timed as the "engine" and "merge" stages (a finder run adds its own
// phases as engine_*). Lint diffs against the parent's report when the
// digest has lineage and both the parent netlist and its report, the
// parent lint job's cached (and journaled) result, are at hand. A
// find_incremental run's parent state is optional: without it (never
// recorded, evicted, or recorded under other options) the engine runs
// in full and reports the fallback in the result breakdown.
func (m *Manager) compute(ctx context.Context, r *run, stages tanglefind.StageTimings) (*api.JobResult, error) {
	if r.kind == api.KindLint {
		engineStart := time.Now()
		var rep *tanglefind.LintReport
		if r.parent != "" {
			if prev, ok := m.cache.get(lintKey(r.parent, r.lintCfg)); ok && prev.Lint != nil {
				if parentNl, _, err := m.cfg.Store.Get(r.parent); err == nil {
					rep = tanglefind.LintDelta(prev.Lint, parentNl, r.h.lintNl, r.h.dirty, r.lintCfg)
				}
			}
		}
		if rep == nil {
			rep = tanglefind.Lint(r.h.lintNl, r.lintCfg)
		}
		stages.Add("engine", time.Since(engineStart))
		mergeStart := time.Now()
		m.mu.Lock()
		m.counts.lintRuns++
		if rep.Incremental {
			m.counts.lintIncr++
		}
		m.mu.Unlock()
		out := &api.JobResult{Lint: rep}
		stages.Add("merge", time.Since(mergeStart))
		return out, nil
	}

	opt := r.opt
	opt.Progress = func(p tanglefind.Progress) {
		m.mu.Lock()
		for _, j := range r.jobs {
			j.setProgress(p)
		}
		m.mu.Unlock()
	}
	opt.Workers = m.acquireWorkers(r)
	defer m.releaseWorkers(opt.Workers)
	engineStart := time.Now()
	var res *tanglefind.Result
	var err error
	if r.kind == api.KindFindIncremental {
		prev, _ := m.incr.get(incrKey(r.parent, r.opt))
		res, err = r.h.finder.FindIncremental(ctx, opt, prev, r.h.dirty)
	} else {
		res, err = r.h.finder.Find(ctx, opt)
	}
	stages.Add("engine", time.Since(engineStart))
	mergeStart := time.Now()
	if res != nil {
		m.mu.Lock()
		// Count by the levels the run actually used: a Levels=4 request
		// over a small netlist may coarsen less than asked (or not at
		// all), and that is what operators need to see.
		m.counts.runsByLevel[max(len(res.Levels), 1)]++
		if res.Incremental != nil && res.Incremental.FullFallback {
			m.counts.incrFallbacks++
		}
		m.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	out := findResult(res)
	mitErr := m.testMitigationErr
	if mitErr == nil {
		mitErr = r.applyMitigation(r.h.finder.Netlist(), res, out)
	}
	if mitErr != nil {
		return nil, mitErr
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
	return out, nil
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
		m.mu.Lock()
		m.counts.journalErrs++
		m.mu.Unlock()
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

// acquireWorkers counts a starting finder run and grants it its
// engine-goroutine share: min(requested, what the pool budget has
// free), never below 1 — a run always makes progress even when
// concurrent runs hold the whole budget. A request <= 0 means "all of
// it" (the engine's own GOMAXPROCS default), so unconfigured jobs split
// the budget instead of each assuming an idle machine.
func (m *Manager) acquireWorkers(r *run) int {
	requested := r.opt.Workers
	if requested <= 0 || requested > m.cfg.EngineWorkers {
		requested = m.cfg.EngineWorkers
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &m.counts
	grant := max(min(requested, m.cfg.EngineWorkers-c.grantsInUse), 1)
	c.engineRuns++
	if grant < requested {
		c.grantsCapped++
	}
	if r.kind == api.KindFindIncremental {
		c.incrRuns++
	}
	c.grantsInUse += grant
	return grant
}

// releaseWorkers returns a finished run's grant to the budget.
func (m *Manager) releaseWorkers(grant int) {
	m.mu.Lock()
	m.counts.grantsInUse -= grant
	m.mu.Unlock()
}
