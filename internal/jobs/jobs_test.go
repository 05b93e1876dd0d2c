package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/internal/generate"
	"tanglefind/internal/store"
)

// registered builds a store holding one planted-block netlist and
// returns its digest.
func registered(t *testing.T, cells, block int, seed uint64) (*store.Store, string) {
	t.Helper()
	spec := generate.RandomGraphSpec{Cells: cells, Seed: seed}
	if block > 0 {
		spec.Blocks = []generate.BlockSpec{{Size: block}}
	}
	rg, err := generate.NewRandomGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Netlist.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s := store.New(0)
	info, err := s.Ingest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s, info.Digest
}

// smallOpts keeps test jobs fast and deterministic.
func smallOpts(t *testing.T, seeds int) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(map[string]any{
		"seeds":         seeds,
		"max_order_len": 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// wait polls a job to a terminal state.
func wait(t *testing.T, m *Manager, id string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFindJobAndResultCache(t *testing.T) {
	s, digest := registered(t, 5000, 500, 11)
	m := New(Config{Store: s, Workers: 2})
	defer m.Shutdown(context.Background())

	req := api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 16)}
	st1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cached {
		t.Error("first submission claimed a cache hit")
	}
	st1 = wait(t, m, st1.ID)
	if st1.State != api.StateDone || st1.Result == nil {
		t.Fatalf("job 1: %+v", st1)
	}
	if len(st1.Result.GTLs) == 0 || st1.Result.GTLs[0].Size < 400 {
		t.Fatalf("planted block not found: %+v", st1.Result)
	}

	// Identical request: served from cache, engine untouched.
	runs := m.Stats().EngineRuns
	st2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != api.StateDone || st2.Result == nil {
		t.Fatalf("job 2 not cached: %+v", st2)
	}
	if st2.Result != st1.Result && len(st2.Result.GTLs) != len(st1.Result.GTLs) {
		t.Error("cached result differs")
	}
	stats := m.Stats()
	if stats.EngineRuns != runs {
		t.Errorf("cache hit ran the engine (%d -> %d runs)", runs, stats.EngineRuns)
	}
	if stats.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", stats.CacheHits)
	}

	// Same options with a different worker count still hits (results
	// are scheduling-independent)...
	var withWorkers map[string]any
	if err := json.Unmarshal(smallOpts(t, 16), &withWorkers); err != nil {
		t.Fatal(err)
	}
	withWorkers["workers"] = 7
	raw, _ := json.Marshal(withWorkers)
	st3, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: raw})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Cached {
		t.Error("worker-count-only change missed the cache")
	}
	// ...but a different seed count misses.
	st4, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 17)})
	if err != nil {
		t.Fatal(err)
	}
	if st4.Cached {
		t.Error("different options hit the cache")
	}
	wait(t, m, st4.ID)
}

func TestMitigationKinds(t *testing.T) {
	s, digest := registered(t, 5000, 500, 11)
	m := New(Config{Store: s, Workers: 2})
	defer m.Shutdown(context.Background())

	st, err := m.Submit(api.JobRequest{Kind: api.KindCluster, Digest: digest, Options: smallOpts(t, 16)})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, m, st.ID)
	if st.State != api.StateDone || st.Result == nil || st.Result.Cluster == nil {
		t.Fatalf("cluster job: %+v", st)
	}
	if st.Result.Cluster.Macros != len(st.Result.GTLs) {
		t.Errorf("macros = %d for %d GTLs", st.Result.Cluster.Macros, len(st.Result.GTLs))
	}

	st, err = m.Submit(api.JobRequest{Kind: api.KindDecompose, Digest: digest, Options: smallOpts(t, 16)})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, m, st.ID)
	if st.State != api.StateDone || st.Result == nil || st.Result.Decompose == nil {
		t.Fatalf("decompose job: %+v", st)
	}
	if st.Result.Decompose.CellsAdded == 0 {
		t.Error("decompose added no cells in a dense block")
	}
	// Kinds do not share cache lines with find.
	stats := m.Stats()
	if stats.CacheHits != 0 {
		t.Errorf("cross-kind cache hits: %d", stats.CacheHits)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, digest := registered(t, 2000, 0, 5)
	m := New(Config{Store: s})
	defer m.Shutdown(context.Background())

	cases := []api.JobRequest{
		{Kind: "melt", Digest: digest},
		{Kind: api.KindFind, Digest: "no-such-digest"},
		{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(`{"seedz": 1}`)},
		{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(`{"seeds": -2}`)},
		{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(`{"seeds": 1099511627776}`)},
		{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(`{"refine_seeds": 65}`)},
		{Kind: api.KindDecompose, Digest: digest, MaxPins: 1},
		{Kind: api.KindFind, Digest: digest, TimeoutMS: -5},
	}
	for _, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("accepted bad request %+v", req)
		}
	}
	if _, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: "no-such-digest"}); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("unknown digest error = %v", err)
	}
}

func TestCancelRunningJobFreesWorker(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	slow, err := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for it to occupy the only worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := m.Status(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if got := wait(t, m, st.ID); got.State != api.StateCancelled {
		t.Fatalf("cancelled job state = %s", got.State)
	}
	// The worker must be free for the next job.
	quick, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if got := wait(t, m, quick.ID); got.State != api.StateDone {
		t.Fatalf("follow-up job state = %s (%s)", got.State, got.Error)
	}
	if stats := m.Stats(); stats.Cancelled != 1 {
		t.Errorf("cancelled count = %d", stats.Cancelled)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 4})
	defer m.Shutdown(context.Background())

	slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000})
	blocker, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Errorf("queued job after cancel = %s", st.State)
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	wait(t, m, blocker.ID)
}

func TestQueueFull(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 1})
	defer m.Shutdown(context.Background())

	// One running + one queued fills the system; the next submission
	// may land before the worker dequeues, so allow one slack slot.
	// Each submission varies rand_seed so none of them coalesce onto
	// an identical in-flight job — this test is about queue capacity.
	var reject error
	for i := 0; i < 4 && reject == nil; i++ {
		slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000, "rand_seed": 100 + i})
		_, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
		if err != nil {
			reject = err
		}
	}
	if !errors.Is(reject, ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", reject)
	}
	for _, st := range m.List() {
		m.Cancel(st.ID)
	}
}

// TestCancelFreesQueueSlot: cancelling queued jobs must release their
// queue capacity immediately, even while every worker stays busy.
func TestCancelFreesQueueSlot(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1, QueueDepth: 2})
	defer m.Shutdown(context.Background())

	// Every submission gets a distinct rand_seed: identical requests
	// would coalesce onto the in-flight run instead of consuming the
	// queue slots this test is about.
	seedN := 0
	submit := func() (api.JobStatus, error) {
		seedN++
		slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000, "rand_seed": seedN})
		return m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
	}
	blocker, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the blocker to leave the queue and occupy the worker.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, _ := m.Status(blocker.ID); st.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	q1, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit error = %v", err)
	}
	// Cancel both queued jobs: their slots must free while the worker
	// is still busy with the blocker.
	for _, id := range []string{q1.ID, q2.ID} {
		st, err := m.Cancel(id)
		if err != nil || st.State != api.StateCancelled {
			t.Fatalf("cancel %s: %+v, %v", id, st, err)
		}
	}
	if _, err := submit(); err != nil {
		t.Fatalf("submit after cancelling queued jobs: %v", err)
	}
	for _, st := range m.List() {
		m.Cancel(st.ID)
	}
}

func TestJobTimeout(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000})
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow), TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, m, st.ID)
	if st.State != api.StateFailed {
		t.Fatalf("timed-out job state = %s", st.State)
	}
	if st.Error == "" {
		t.Error("timed-out job carries no error message")
	}
}

func TestSubscribeSeesEvents(t *testing.T) {
	s, digest := registered(t, 5000, 500, 11)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 16)})
	if err != nil {
		t.Fatal(err)
	}
	events, unsub, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	var n int
	var lastState api.State
	for ev := range events {
		n++
		lastState = ev.State
	}
	if n < 1 {
		t.Fatal("no events delivered")
	}
	if !lastState.Terminal() {
		t.Errorf("stream ended in non-terminal state %s", lastState)
	}
	// A late subscriber still gets the terminal snapshot.
	late, unsub2, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub2()
	ev, open := <-late
	if !open || !ev.State.Terminal() {
		t.Errorf("late snapshot = %+v (open=%v)", ev, open)
	}
	if _, open := <-late; open {
		t.Error("late channel not closed after terminal snapshot")
	}
}

func TestShutdownDrains(t *testing.T) {
	s, digest := registered(t, 5000, 500, 11)
	m := New(Config{Store: s, Workers: 1})
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateDone {
		t.Errorf("drained job state = %s", got.State)
	}
	if _, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-shutdown submit error = %v", err)
	}
}

func TestForcedShutdownCancels(t *testing.T) {
	s, digest := registered(t, 30000, 2000, 13)
	m := New(Config{Store: s, Workers: 1})
	slow, _ := json.Marshal(map[string]any{"seeds": 5000, "max_order_len": 12000})
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(slow)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown error = %v", err)
	}
	got, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.State.Terminal() {
		t.Errorf("job survived forced shutdown in state %s", got.State)
	}
}

// TestMultilevelJob runs a find job through the multilevel pipeline
// and checks the serving-layer surfaces: the result carries the
// per-level breakdown, /v1/stats-style counters attribute the run to
// its level count, multilevel options form their own cache lines, and
// the store reports engine memory after the run.
func TestMultilevelJob(t *testing.T) {
	s, digest := registered(t, 8000, 600, 11)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	raw, err := json.Marshal(map[string]any{
		"seeds":            16,
		"max_order_len":    1500,
		"levels":           2,
		"min_coarse_cells": 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: raw})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, m, st.ID)
	if st.State != api.StateDone || st.Result == nil {
		t.Fatalf("multilevel job: %+v", st)
	}
	if len(st.Result.Levels) != 2 {
		t.Fatalf("result level entries = %d, want 2", len(st.Result.Levels))
	}
	if len(st.Result.GTLs) == 0 {
		t.Error("multilevel job found no GTLs on a planted-block netlist")
	}

	// A flat job over the same netlist must not share a cache line.
	flat, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: smallOpts(t, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if flat.Cached {
		t.Error("flat request hit the multilevel cache line")
	}
	wait(t, m, flat.ID)

	stats := m.Stats()
	if stats.RunsByLevels["2"] != 1 {
		t.Errorf("runs_by_levels[2] = %d, want 1 (stats: %+v)", stats.RunsByLevels["2"], stats.RunsByLevels)
	}
	if stats.RunsByLevels["1"] != 1 {
		t.Errorf("runs_by_levels[1] = %d, want 1 (stats: %+v)", stats.RunsByLevels["1"], stats.RunsByLevels)
	}
	// The resident engine's cached hierarchy alone makes this positive.
	if eb := s.Stats().EngineBytes; eb <= 0 {
		t.Errorf("store engine_bytes = %d after engine runs; want positive", eb)
	}
}

// TestOldClientPayload submits the exact options document a
// pre-multilevel client would send and expects flat behavior — the
// explicit wire-level forward-compatibility check on top of the core
// ParseOptions test.
func TestOldClientPayload(t *testing.T) {
	s, digest := registered(t, 5000, 500, 11)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	old := json.RawMessage(`{"seeds": 16, "max_order_len": 1500, "metric": "gtlsd", "refine": true, "rand_seed": 1}`)
	st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: old})
	if err != nil {
		t.Fatalf("old-client payload rejected: %v", err)
	}
	st = wait(t, m, st.ID)
	if st.State != api.StateDone || st.Result == nil {
		t.Fatalf("old-client job: %+v", st)
	}
	if len(st.Result.Levels) != 0 {
		t.Errorf("old-client payload triggered a multilevel run: %+v", st.Result.Levels)
	}
	if m.Stats().RunsByLevels["1"] != 1 {
		t.Errorf("old-client run not counted as flat: %+v", m.Stats().RunsByLevels)
	}
}

// applyTestDelta registers a pin-preserving reconnect delta against
// the digest's netlist and returns the child digest.
func applyTestDelta(t *testing.T, s *store.Store, digest string) string {
	t.Helper()
	nl, _, err := s.Get(digest)
	if err != nil {
		t.Fatal(err)
	}
	// Edit a net living entirely in the top of the cell-id space —
	// background territory in generated workloads (planted blocks
	// occupy the low ids), so the edit stays far from the tangle.
	var target int32 = -1
	var pins []int32
	for e := nl.NumNets() - 1; e >= 0; e-- {
		ps := nl.NetPins(int32(e))
		ok := len(ps) >= 2
		for _, c := range ps {
			if int(c) < nl.NumCells()/2 {
				ok = false
				break
			}
		}
		if ok {
			target = int32(e)
			for _, c := range ps {
				pins = append(pins, c)
			}
			break
		}
	}
	if target < 0 {
		t.Fatal("no background net found")
	}
	edit := map[string]any{"set_nets": []map[string]any{{
		"net": target, "cells": []int32{pins[0], pins[0] - 1},
	}}}
	doc, err := json.Marshal(edit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyDelta(digest, doc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist.Digest
}

// TestIncrementalJobReusesParentState drives the serving-layer flow:
// a recorded find on the parent, a delta, then a find_incremental on
// the child that reuses state — its result equal (in shape) to a
// from-scratch find on the child.
func TestIncrementalJobReusesParentState(t *testing.T) {
	s, digest := registered(t, 9000, 400, 61)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	opts, err := json.Marshal(map[string]any{
		"seeds": 16, "max_order_len": 700, "record_incremental": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, m, base.ID); st.State != api.StateDone {
		t.Fatalf("base run: %+v", st)
	}

	child := applyTestDelta(t, s, digest)

	incr, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st := wait(t, m, incr.ID)
	if st.State != api.StateDone || st.Result == nil {
		t.Fatalf("incremental job: %+v", st)
	}
	br := st.Result.Incremental
	if br == nil {
		t.Fatal("incremental job result carries no breakdown")
	}
	if br.FullFallback {
		t.Fatalf("incremental job fell back: %+v", br)
	}
	if br.ReusedSeeds == 0 {
		t.Fatalf("no seeds reused: %+v", br)
	}

	// Oracle at the serving layer: a plain find on the child agrees.
	full, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: child, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fs := wait(t, m, full.ID)
	if fs.State != api.StateDone {
		t.Fatalf("full child run: %+v", fs)
	}
	if len(fs.Result.GTLs) != len(st.Result.GTLs) || fs.Result.Candidates != st.Result.Candidates {
		t.Fatalf("incremental diverged from full: %d/%d GTLs, %d/%d candidates",
			len(st.Result.GTLs), len(fs.Result.GTLs), st.Result.Candidates, fs.Result.Candidates)
	}

	stats := m.Stats()
	if stats.IncrementalRuns != 1 || stats.IncrementalFallbacks != 0 {
		t.Errorf("stats = %+v", stats)
	}

	// A second delta on the child chains off the incremental run's
	// own recorded state.
	grand := applyTestDelta(t, s, child)
	incr2, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: grand, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st2 := wait(t, m, incr2.ID)
	if st2.State != api.StateDone || st2.Result.Incremental == nil || st2.Result.Incremental.FullFallback {
		t.Fatalf("chained incremental job: %+v", st2.Result)
	}
}

// TestIncrementalJobFallsBackWithoutState proves the degraded path: a
// find_incremental without a recorded parent run still completes, as
// a full run, and reports why.
func TestIncrementalJobFallsBackWithoutState(t *testing.T) {
	s, digest := registered(t, 4000, 300, 62)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	child := applyTestDelta(t, s, digest)
	st, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: smallOpts(t, 8)})
	if err != nil {
		t.Fatal(err)
	}
	got := wait(t, m, st.ID)
	if got.State != api.StateDone || got.Result == nil || got.Result.Incremental == nil {
		t.Fatalf("fallback job: %+v", got)
	}
	if !got.Result.Incremental.FullFallback {
		t.Fatal("expected a full fallback")
	}
	if m.Stats().IncrementalFallbacks != 1 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

// TestIncrementalSubmitErrors locks the typed submission failures —
// a digest without lineage is a bad request — and that the matrix
// restriction is gone: a multilevel find_incremental submit is
// accepted and completes (here as a reported full fallback, since the
// parent digest has no recorded multilevel run to chain from).
func TestIncrementalSubmitErrors(t *testing.T) {
	s, digest := registered(t, 4000, 0, 63)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	_, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: digest, Options: smallOpts(t, 8)})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("no-lineage submit error = %v, want ErrBadRequest", err)
	}

	child := applyTestDelta(t, s, digest)
	ml, err := json.Marshal(map[string]any{"seeds": 8, "max_order_len": 1200, "levels": 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: ml})
	if err != nil {
		t.Fatalf("multilevel incremental submit = %v, want accepted", err)
	}
	got := wait(t, m, st.ID)
	if got.State != api.StateDone || got.Result == nil || got.Result.Incremental == nil {
		t.Fatalf("multilevel incremental job: %+v", got)
	}
	if !got.Result.Incremental.FullFallback {
		t.Error("first-in-chain multilevel incremental should report a full fallback")
	}
}

// TestCacheHitDoesNotStarveStatePriming: when the incremental state
// LRU has evicted a digest's recorded state, re-submitting the
// identical record_incremental find must run the engine again (the
// cached wire result alone cannot re-prime the state).
func TestCacheHitDoesNotStarveStatePriming(t *testing.T) {
	s, digest := registered(t, 9000, 400, 64)
	other, err := s.Ingest(payloadBytes(t, 4000, 65))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: s, Workers: 1, IncrStates: 1})
	defer m.Shutdown(context.Background())

	opts, err := json.Marshal(map[string]any{
		"seeds": 12, "max_order_len": 700, "record_incremental": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, base.ID)
	// Evict digest's state from the 1-entry LRU with another recording.
	evictor, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: other.Digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, evictor.ID)

	runs := m.Stats().EngineRuns
	again, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st := wait(t, m, again.ID)
	if st.Cached {
		t.Fatal("re-priming submit was served from the result cache")
	}
	if m.Stats().EngineRuns != runs+1 {
		t.Fatalf("engine runs %d -> %d; re-priming did not run", runs, m.Stats().EngineRuns)
	}
	// The re-primed state makes the child's incremental job reuse work.
	child := applyTestDelta(t, s, digest)
	incr, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	got := wait(t, m, incr.ID)
	if got.State != api.StateDone || got.Result.Incremental == nil || got.Result.Incremental.FullFallback {
		t.Fatalf("incremental after re-prime: %+v", got.Result)
	}
	if m.Stats().IncrStateBytes <= 0 {
		t.Errorf("IncrStateBytes = %d, want > 0", m.Stats().IncrStateBytes)
	}
}

// TestIncrStateBytesCountsSharedRecordsOnce: after a recorded find and
// a replaying find_incremental the state LRU holds two states whose
// replayed seeds share footprints and orderings, so IncrStateBytes
// must come in below the sum of the two states' own estimates.
func TestIncrStateBytesCountsSharedRecordsOnce(t *testing.T) {
	s, digest := registered(t, 9000, 400, 61)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())
	opts, err := json.Marshal(map[string]any{
		"seeds": 16, "max_order_len": 700, "record_incremental": true,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, m, base.ID)
	child := applyTestDelta(t, s, digest)
	incr, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: child, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	got := wait(t, m, incr.ID)
	if st := got.Result.Incremental; st == nil || st.FullFallback || st.ReusedSeeds == 0 {
		t.Fatalf("incremental job replayed nothing: %+v", st)
	}
	var sum, most int64
	states := 0
	m.incr.each(func(res *tanglefind.Result) {
		b := res.IncrState.MemoryEstimate()
		sum += b
		most = max(most, b)
		states++
	})
	if states != 2 {
		t.Fatalf("state LRU holds %d states, want 2", states)
	}
	if b := m.Stats().IncrStateBytes; b >= sum || b < most {
		t.Fatalf("IncrStateBytes = %d, want below the states' sum %d and at least the larger state's %d", b, sum, most)
	}
}

// payloadBytes serializes a small block-free netlist as .tfb bytes.
func payloadBytes(t *testing.T, cells int, seed uint64) []byte {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: cells, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Netlist.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJournaledLintFeedsIncrementalLint: a child lints against its
// parent's report from the result cache, so a report journaled before
// a restart still makes the child's lint incremental after it.
func TestJournaledLintFeedsIncrementalLint(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*store.Store, *Manager) {
		t.Helper()
		backend, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(0, backend)
		if err != nil {
			t.Fatal(err)
		}
		return s, New(Config{Store: s, Workers: 1})
	}
	lint := func(m *Manager, digest string) api.JobStatus {
		t.Helper()
		st, err := m.Submit(api.JobRequest{Kind: api.KindLint, Digest: digest})
		if err != nil {
			t.Fatal(err)
		}
		st = wait(t, m, st.ID)
		if st.State != api.StateDone || st.Result == nil || st.Result.Lint == nil {
			t.Fatalf("lint job: %s (%s)", st.State, st.Error)
		}
		return st
	}

	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{Cells: 2000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.Netlist.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	s1, m1 := boot()
	parent, err := s1.Ingest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lint(m1, parent.Digest)
	dres, err := s1.ApplyDelta(parent.Digest, []byte(`{"set_nets":[{"net":0,"cells":[0,1,2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	m1.Shutdown(context.Background())
	s1.Close()

	s2, m2 := boot()
	defer s2.Close()
	defer m2.Shutdown(context.Background())
	if st := lint(m2, dres.Netlist.Digest); !st.Result.Lint.Incremental {
		t.Error("child lint after a restart ran from scratch despite the journaled parent report")
	}
	if got := m2.Stats().LintIncremental; got != 1 {
		t.Errorf("lint_incremental = %d, want 1", got)
	}
}
