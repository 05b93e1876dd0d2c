package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// blockWorker submits a slow, unique job and waits until it occupies
// the (single) worker, so subsequently submitted jobs stay queued
// deterministically. Returns the blocker's status; callers cancel it
// to release the worker.
func blockWorker(t *testing.T, m *Manager, digest string) api.JobStatus {
	t.Helper()
	slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000, "rand_seed": 777})
	blocker, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := m.Status(blocker.ID); st.State == api.StateRunning {
			return blocker
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescedSubmissionsShareOneRun: identical submissions arriving
// while a matching run is queued attach to it — one engine run,
// every job id completing with the full result and its own queue_wait.
func TestCoalescedSubmissionsShareOneRun(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
	defer m.Shutdown(context.Background())

	blocker := blockWorker(t, m, digest)
	same := smallOpts(t, 6)
	lead, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
	if err != nil {
		t.Fatal(err)
	}
	const nFollowers = 5
	ids := map[string]bool{blocker.ID: true, lead.ID: true}
	var followers []api.JobStatus
	for i := 0; i < nFollowers; i++ {
		st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cached {
			t.Fatalf("follower %d served as cache hit before any run finished", i)
		}
		if ids[st.ID] {
			t.Fatalf("duplicate job id %s", st.ID)
		}
		ids[st.ID] = true
		followers = append(followers, st)
	}
	if st := m.Stats(); st.CoalescedJobs != nFollowers {
		t.Fatalf("coalesced_jobs = %d, want %d", st.CoalescedJobs, nFollowers)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	leadFin := wait(t, m, lead.ID)
	if leadFin.State != api.StateDone || leadFin.Result == nil {
		t.Fatalf("leader finished %s (%s)", leadFin.State, leadFin.Error)
	}
	for _, f := range followers {
		fin := wait(t, m, f.ID)
		if fin.State != api.StateDone || fin.Result == nil {
			t.Fatalf("follower %s finished %s (%s)", f.ID, fin.State, fin.Error)
		}
		if len(fin.Result.GTLs) != len(leadFin.Result.GTLs) || fin.Result.Candidates != leadFin.Result.Candidates {
			t.Errorf("follower %s result diverges from leader's", f.ID)
		}
		if _, ok := fin.Result.Stages["queue_wait"]; !ok {
			t.Errorf("follower %s has no queue_wait stage", f.ID)
		}
	}
	st := m.Stats()
	if st.EngineRuns != 2 {
		t.Errorf("engine_runs = %d, want 2 (blocker + one coalesced run)", st.EngineRuns)
	}
	if st.Completed != int64(1+nFollowers) {
		t.Errorf("completed = %d, want %d", st.Completed, 1+nFollowers)
	}
	if st.CacheHits != 0 {
		t.Errorf("cache_hits = %d during coalescing, want 0", st.CacheHits)
	}
	// With the run finished, the next identical submission is a plain
	// cache hit, not a new run or a follower.
	hit, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
	if err != nil || !hit.Cached {
		t.Fatalf("post-run submission: %+v, %v", hit, err)
	}
}

// TestCoalescedCancelSemantics: cancelling a job on a shared run
// detaches only that job; cancelling the run's first submitter while
// it is queued leaves the run to the remaining job, so it still gets
// its one engine run.
func TestCoalescedCancelSemantics(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
	defer m.Shutdown(context.Background())

	blocker := blockWorker(t, m, digest)
	same := smallOpts(t, 6)
	submit := func() api.JobStatus {
		st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	lead, f1, f2 := submit(), submit(), submit()

	// Cancelling one follower leaves the leader and its sibling alone.
	if st, err := m.Cancel(f1.ID); err != nil || st.State != api.StateCancelled {
		t.Fatalf("cancel follower: %+v, %v", st, err)
	}
	if st, _ := m.Status(lead.ID); st.State != api.StateQueued {
		t.Fatalf("leader state after follower cancel = %s", st.State)
	}
	// Cancelling the queued first submitter leaves the run to f2.
	if st, err := m.Cancel(lead.ID); err != nil || st.State != api.StateCancelled {
		t.Fatalf("cancel leader: %+v, %v", st, err)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	fin := wait(t, m, f2.ID)
	if fin.State != api.StateDone || fin.Result == nil {
		t.Fatalf("remaining job finished %s (%s)", fin.State, fin.Error)
	}
	st := m.Stats()
	if st.EngineRuns != 2 {
		t.Errorf("engine_runs = %d, want 2 (blocker + the shared run)", st.EngineRuns)
	}
	if st.Cancelled != 3 { // blocker, f1, lead
		t.Errorf("cancelled = %d, want 3", st.Cancelled)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d, want 1", st.Completed)
	}
}

// TestFailedJobPrimesNothing: a job whose mitigation step fails after
// a clean engine pass must leave neither a cached result nor recorded
// incremental state behind — the next identical submission runs again.
func TestFailedJobPrimesNothing(t *testing.T) {
	s, digest := registered(t, 3000, 300, 5)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())
	m.testMitigationErr = errors.New("mitigation exploded")

	raw, _ := json.Marshal(map[string]any{"seeds": 8, "max_order_len": 1500, "record_incremental": true})
	req := api.JobRequest{Kind: api.KindCluster, Digest: digest, Options: json.RawMessage(raw)}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin := wait(t, m, st.ID)
	if fin.State != api.StateFailed || !strings.Contains(fin.Error, "mitigation exploded") {
		t.Fatalf("job finished %s (%q), want failed with the seam's error", fin.State, fin.Error)
	}
	opt, err := tanglefind.ParseOptions(json.RawMessage(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.cache.get(cacheKey(api.KindCluster, digest, 0, opt)); ok {
		t.Error("failed job left a cached result")
	}
	if _, ok := m.incr.get(incrKey(digest, opt)); ok {
		t.Error("failed job primed the incremental-state cache")
	}

	// With the failure gone the identical submission must run the
	// engine again — not be served by anything the failed job left.
	m.testMitigationErr = nil
	st2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Fatal("resubmission after failure served from cache")
	}
	fin2 := wait(t, m, st2.ID)
	if fin2.State != api.StateDone {
		t.Fatalf("resubmission finished %s (%s)", fin2.State, fin2.Error)
	}
	if runs := m.Stats().EngineRuns; runs != 2 {
		t.Errorf("engine_runs = %d, want 2", runs)
	}
	if _, ok := m.incr.get(incrKey(digest, opt)); !ok {
		t.Error("successful run did not prime the incremental-state cache")
	}
}

// TestCacheHitReportsOwnQueueWait: a cache hit's stage breakdown keeps
// the producing run's engine stages but reports the hit's own queue
// wait (effectively zero), not the first job's.
func TestCacheHitReportsOwnQueueWait(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 16})
	defer m.Shutdown(context.Background())

	blocker := blockWorker(t, m, digest)
	same := smallOpts(t, 6)
	j1, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job accumulate real queue wait behind the blocker.
	time.Sleep(150 * time.Millisecond)
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	fin1 := wait(t, m, j1.ID)
	if fin1.State != api.StateDone {
		t.Fatalf("first job finished %s (%s)", fin1.State, fin1.Error)
	}
	qw1 := fin1.Result.Stages["queue_wait"]
	if qw1 < 100*time.Millisecond {
		t.Fatalf("first job queue_wait = %s, expected >= 100ms behind the blocker", qw1)
	}

	hit, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: same})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.Result == nil {
		t.Fatalf("second submission not a cache hit: %+v", hit)
	}
	qw2 := hit.Result.Stages["queue_wait"]
	if qw2 >= qw1 || qw2 > 50*time.Millisecond {
		t.Errorf("cache hit queue_wait = %s leaked from the first run's %s", qw2, qw1)
	}
	if hit.Result.Stages["engine"] != fin1.Result.Stages["engine"] {
		t.Errorf("cache hit engine stage %s != producing run's %s",
			hit.Result.Stages["engine"], fin1.Result.Stages["engine"])
	}
	if _, ok := hit.Result.Stages["merge"]; !ok {
		t.Error("cache hit dropped the producing run's merge stage")
	}
	// The hit's private copy must not have rewritten the original.
	again, err := m.Status(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.Stages["queue_wait"] != qw1 {
		t.Errorf("first job's queue_wait changed from %s to %s after the hit",
			qw1, again.Result.Stages["queue_wait"])
	}
}

// TestCoalescedConcurrentCancel submits identical jobs from several
// goroutines while half of them cancel their own job at once, so
// attaching, cancelling, progress fan-out and finishing all reach the
// shared runs concurrently. Every job must end cancelled (if its
// Cancel settled it) or done, and the manager must be left with no
// live record, run or queue entry.
func TestCoalescedConcurrentCancel(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 2, QueueDepth: 16})
	defer m.Shutdown(context.Background())

	const n = 8
	opts := rawOpts(t, map[string]any{"seeds": 24, "max_order_len": 6000, "rand_seed": 32})
	ids := make([]string, n)
	cancelled := make([]bool, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
			if i%2 == 1 {
				got, err := m.Cancel(st.ID)
				if err != nil {
					t.Error(err)
				}
				cancelled[i] = got.State == api.StateCancelled
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		fin := wait(t, m, id)
		want := api.StateDone
		if cancelled[i] {
			want = api.StateCancelled
		}
		if fin.State != want {
			t.Errorf("job %s ended %s (%q), want %s", id, fin.State, fin.Error, want)
		}
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Completed+st.Cancelled != n || st.Failed != 0 {
		t.Errorf("completed %d + cancelled %d, failed %d; want %d settled, none failed", st.Completed, st.Cancelled, st.Failed, n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.live != 0 || len(m.inflight) != 0 || len(m.pending) != 0 {
		t.Errorf("after drain: %d live records, %d single-flight entries, %d pending runs; want none", m.live, len(m.inflight), len(m.pending))
	}
}
