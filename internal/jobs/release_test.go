package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/generate"
	"tanglefind/internal/store"
)

// heldHandles reads what a job record still references in the store,
// which it reaches only through its run.
func heldHandles(t *testing.T, m *Manager, id string) handles {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		t.Fatalf("job %s not retained", id)
	}
	if j.run == nil {
		return handles{}
	}
	return j.run.h
}

// assertReleased fails when a terminal record still holds an engine,
// a netlist or a dirty set.
func assertReleased(t *testing.T, m *Manager, id, path string) {
	t.Helper()
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.State.Terminal() {
		t.Fatalf("%s: job %s is %s, not terminal", path, id, st.State)
	}
	if h := heldHandles(t, m, id); h.finder != nil || h.lintNl != nil || h.dirty != nil {
		t.Errorf("%s: terminal record %s still holds engine handles (finder %v, netlist %v, %d dirty cells)",
			path, id, h.finder != nil, h.lintNl != nil, len(h.dirty))
	}
}

// waitRunning polls a job until it leaves the queued state.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateQueued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTerminalRecordsReleaseHandles drives a job record down every
// terminal path — done (find, find_incremental, lint), failed,
// cancelled while queued or running, alone or off a shared run, and
// cache hit — and checks that none keeps an engine or netlist
// reachable afterwards.
func TestTerminalRecordsReleaseHandles(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
	defer m.Shutdown(context.Background())
	submit := func(req api.JobRequest) api.JobStatus {
		t.Helper()
		st, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	find := func(opts json.RawMessage) api.JobRequest {
		return api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts}
	}

	// Done, then an identical resubmit served from the cache.
	done := submit(find(smallOpts(t, 6)))
	if st := wait(t, m, done.ID); st.State != api.StateDone {
		t.Fatalf("find job finished %s (%s)", st.State, st.Error)
	}
	assertReleased(t, m, done.ID, "done")
	hit := submit(find(smallOpts(t, 6)))
	if !hit.Cached {
		t.Fatalf("identical resubmit not cached: %+v", hit)
	}
	assertReleased(t, m, hit.ID, "cache hit")

	// Done on the delta-derived kinds, which also carry dirty cells.
	child := applyTestDelta(t, s, digest)
	incr := submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: smallOpts(t, 6)})
	lint := submit(api.JobRequest{Kind: api.KindLint, Digest: child})
	for _, id := range []string{incr.ID, lint.ID} {
		if st := wait(t, m, id); st.State != api.StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		assertReleased(t, m, id, "done ("+id+")")
	}

	// Failed after a clean engine pass.
	m.testMitigationErr = errors.New("mitigation exploded")
	failed := submit(api.JobRequest{Kind: api.KindCluster, Digest: digest, Options: smallOpts(t, 6)})
	if st := wait(t, m, failed.ID); st.State != api.StateFailed {
		t.Fatalf("mitigation job finished %s, want failed", st.State)
	}
	m.testMitigationErr = nil
	assertReleased(t, m, failed.ID, "failed")

	// Cancelled while queued, alone and as the later job on a shared run.
	blocker := blockWorker(t, m, digest)
	queued := submit(find(smallOpts(t, 7)))
	follower := submit(find(smallOpts(t, 7)))
	if _, err := m.Cancel(follower.ID); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, m, follower.ID, "follower cancel")
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, m, queued.ID, "cancelled while queued")
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	wait(t, m, blocker.ID)
	assertReleased(t, m, blocker.ID, "cancelled while running")

	// The first job cancelled off a running shared run: its record
	// settles at once while the run keeps serving the other job.
	slow, err := json.Marshal(map[string]any{"seeds": 48, "max_order_len": 6000, "rand_seed": 31})
	if err != nil {
		t.Fatal(err)
	}
	leader := submit(find(slow))
	waitRunning(t, m, leader.ID)
	rider := submit(find(slow))
	if rider.Cached || rider.State != api.StateRunning {
		t.Fatalf("identical submission during the run: %+v, want a running follower", rider)
	}
	if st, err := m.Cancel(leader.ID); err != nil || st.State != api.StateCancelled {
		t.Fatalf("cancel running leader: %+v, %v", st, err)
	}
	assertReleased(t, m, leader.ID, "running-leader detach")
	if st := wait(t, m, rider.ID); st.State != api.StateDone || st.Result == nil {
		t.Fatalf("follower of a detached leader finished %s (%s)", st.State, st.Error)
	}
	assertReleased(t, m, rider.ID, "follower done")
}

// TestFinishedRecordsRetainNoNetlist is the retention property behind
// serving memory following live work: after N finds over N distinct
// digests with a one-netlist pin budget — every record retained — and
// one more upload that evicts the last of them, the only netlist still
// reachable is the resident one. Neither finished records nor the
// engines' shared worker-state pool may keep an evicted netlist alive.
func TestFinishedRecordsRetainNoNetlist(t *testing.T) {
	const n = 5
	s := store.New(1) // evicts all but the most recent netlist
	m := New(Config{Store: s, Workers: 1, MaxJobs: 2 * n})
	defer m.Shutdown(context.Background())

	// ingest registers one netlist and returns a weak reference to it,
	// so the test itself holds nothing strong.
	ingest := func(seed uint64) (string, weak.Pointer[tanglefind.Netlist]) {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 3000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rg.Netlist.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		info, err := s.Ingest(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		nl, _, err := s.Get(info.Digest)
		if err != nil {
			t.Fatal(err)
		}
		return info.Digest, weak.Make(nl)
	}
	refs := make([]weak.Pointer[tanglefind.Netlist], n)
	for i := range refs {
		var digest string
		digest, refs[i] = ingest(uint64(100 + i))
		st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 8)})
		if err != nil {
			t.Fatal(err)
		}
		if fin := wait(t, m, st.ID); fin.State != api.StateDone {
			t.Fatalf("find %d finished %s (%s)", i, fin.State, fin.Error)
		}
	}
	_, resident := ingest(200)
	if got := len(m.List()); got != n {
		t.Fatalf("retained %d records, want %d", got, n)
	}
	runtime.GC()
	for i, r := range refs {
		if r.Value() != nil {
			t.Errorf("netlist %d of %d is still reachable after its eviction and its job's end", i, n)
		}
	}
	if resident.Value() == nil {
		t.Error("the resident netlist was collected")
	}
}

// TestCachedResubmitOfEvictedDigestSkipsReload: on a durable store, a
// cache hit on a digest whose netlist was evicted is answered from the
// result cache alone — no blob re-parse, no engine — while a cache
// miss on it still reloads transparently.
func TestCachedResubmitOfEvictedDigestSkipsReload(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(1, disk)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	payload := func(seed uint64) []byte {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 3000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rg.Netlist.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, err := s.Ingest(payload(1))
	if err != nil {
		t.Fatal(err)
	}
	req := api.JobRequest{Kind: api.KindFind, Digest: first.Digest, Options: smallOpts(t, 8)}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, m, st.ID); fin.State != api.StateDone {
		t.Fatalf("priming find finished %s (%s)", fin.State, fin.Error)
	}
	if _, err := s.Ingest(payload(2)); err != nil {
		t.Fatal(err)
	}
	if info, _ := s.Info(first.Digest); info.Loaded {
		t.Fatal("first netlist still resident; the test needs it evicted")
	}

	reloads := s.Stats().LazyReloads
	hit, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.State != api.StateDone {
		t.Fatalf("resubmit of an evicted digest: %+v, want a cache hit", hit)
	}
	if got := s.Stats().LazyReloads; got != reloads {
		t.Errorf("cached resubmit reloaded the evicted netlist: lazy_reloads %d -> %d", reloads, got)
	}

	miss, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: first.Digest, Options: smallOpts(t, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, m, miss.ID); fin.State != api.StateDone {
		t.Fatalf("cache miss on an evicted digest finished %s (%s)", fin.State, fin.Error)
	}
	if got := s.Stats().LazyReloads; got != reloads+1 {
		t.Errorf("cache miss on an evicted digest: lazy_reloads %d -> %d, want one reload", reloads, got)
	}
}

// resultJournalFails is a durable backend whose result appends fail,
// as a full or failing disk would make them.
type resultJournalFails struct{ store.NullBackend }

func (resultJournalFails) Durable() bool { return true }

func (resultJournalFails) Append(rec store.Record) error {
	if rec.Kind == store.RecResult {
		return errors.New("journal device full")
	}
	return nil
}

// TestJournalErrorsCounted: a result the journal cannot persist still
// completes the job, and the failure shows in both /v1/stats
// (journal_errors) and /metrics (gtl_job_journal_errors_total).
func TestJournalErrorsCounted(t *testing.T) {
	s, err := store.Open(0, resultJournalFails{})
	if err != nil {
		t.Fatal(err)
	}
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Netlist.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := s.Ingest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: info.Digest, Options: smallOpts(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if fin := wait(t, m, st.ID); fin.State != api.StateDone {
		t.Fatalf("job finished %s (%s); a journal failure must not fail it", fin.State, fin.Error)
	}
	if got := m.Stats().JournalErrors; got != 1 {
		t.Errorf("journal_errors = %d, want 1", got)
	}
	var text bytes.Buffer
	if err := m.Registry().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "\ngtl_job_journal_errors_total 1\n") {
		t.Errorf("/metrics lacks gtl_job_journal_errors_total 1:\n%s", text.String())
	}
}
