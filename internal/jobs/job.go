package jobs

import (
	"sync"
	"time"

	"tanglefind"
	"tanglefind/api"
)

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
