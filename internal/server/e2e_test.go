package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tanglefind"
	"tanglefind/api"
	"tanglefind/client"
	"tanglefind/internal/generate"
	"tanglefind/internal/jobs"
	"tanglefind/internal/store"
)

// newTestServer boots the whole stack in-process: registry, manager
// (1 worker so occupancy is observable), HTTP server, Go client.
func newTestServer(t *testing.T) (*client.Client, *jobs.Manager) {
	t.Helper()
	st := store.New(0)
	mgr := jobs.New(jobs.Config{Store: st, Workers: 1, QueueDepth: 16})
	hs := httptest.NewServer(New(st, mgr).Handler())
	t.Cleanup(func() {
		hs.Close()
		mgr.Shutdown(context.Background())
	})
	return client.New(hs.URL, hs.Client()), mgr
}

// tfbPayload serializes a planted-block netlist as .tfb bytes.
func tfbPayload(t *testing.T, cells, block int, seed uint64) []byte {
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
	return buf.Bytes()
}

func options(t *testing.T, kv map[string]any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(kv)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEndToEnd is the acceptance flow: upload a generated netlist,
// submit a find job while streaming its progress (≥ 1 event arrives
// before completion), fetch the result, then submit the identical
// request and verify it is served from the result cache without
// another engine run.
func TestEndToEnd(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	// Upload.
	payload := tfbPayload(t, 6000, 500, 21)
	info, err := c.UploadNetlist(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cells != 6000 || info.Format != "tfb" || !info.Loaded {
		t.Fatalf("upload info = %+v", info)
	}
	// Idempotent re-upload, and the metadata endpoints agree.
	again, err := c.UploadNetlist(ctx, payload)
	if err != nil || again.Digest != info.Digest {
		t.Fatalf("re-upload: %+v, %v", again, err)
	}
	listed, err := c.Netlists(ctx)
	if err != nil || len(listed) != 1 {
		t.Fatalf("netlist list = %+v, %v", listed, err)
	}

	// Submit a find job and stream its events concurrently. The seed
	// count keeps the engine busy long enough that the stream attaches
	// while the job is still running (hundreds of per-seed events).
	req := api.JobRequest{
		Kind:    api.KindFind,
		Digest:  info.Digest,
		Options: options(t, map[string]any{"seeds": 400, "max_order_len": 2500}),
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Terminal() && !st.Cached {
		t.Fatalf("fresh job already terminal: %+v", st)
	}

	var mu sync.Mutex
	var events []api.Event
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.StreamEvents(ctx, st.ID, func(ev api.Event) bool {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			return true
		})
	}()

	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.StateDone || final.Result == nil {
		t.Fatalf("final status: %+v", final)
	}
	if len(final.Result.GTLs) == 0 || final.Result.GTLs[0].Size < 400 {
		t.Fatalf("planted block not detected: %+v", final.Result)
	}
	if len(final.Result.GTLs[0].Members) != final.Result.GTLs[0].Size {
		t.Error("GTL members not transported")
	}
	if err := <-streamDone; err != nil {
		t.Fatalf("stream: %v", err)
	}
	mu.Lock()
	n := len(events)
	sawNonTerminal := false
	for _, ev := range events {
		if !ev.State.Terminal() {
			sawNonTerminal = true
		}
	}
	last := events[n-1]
	mu.Unlock()
	if n < 2 || !sawNonTerminal {
		t.Fatalf("progress consumer saw %d events (non-terminal: %v); want >= 1 before completion", n, sawNonTerminal)
	}
	if last.State != api.StateDone {
		t.Errorf("last streamed state = %s", last.State)
	}

	// Identical request: cache hit, no new engine run.
	stats0, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != api.StateDone || st2.Result == nil {
		t.Fatalf("second submission not served from cache: %+v", st2)
	}
	if len(st2.Result.GTLs) != len(final.Result.GTLs) {
		t.Error("cached result disagrees with computed result")
	}
	stats1, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.Jobs.EngineRuns != stats0.Jobs.EngineRuns {
		t.Errorf("cache hit ran the engine: %d -> %d runs", stats0.Jobs.EngineRuns, stats1.Jobs.EngineRuns)
	}
	if stats1.Jobs.CacheHits != stats0.Jobs.CacheHits+1 {
		t.Errorf("cache hits %d -> %d, want +1", stats0.Jobs.CacheHits, stats1.Jobs.CacheHits)
	}

	// A cached job's event stream still delivers its terminal snapshot.
	var cachedEvents int
	if err := c.StreamEvents(ctx, st2.ID, func(ev api.Event) bool {
		cachedEvents++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if cachedEvents != 1 {
		t.Errorf("cached job streamed %d events, want exactly the snapshot", cachedEvents)
	}
}

// TestCancelFreesWorker proves a cancelled job releases its worker:
// with a single worker, cancel a long job and a follow-up must run.
func TestCancelFreesWorker(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	info, err := c.UploadNetlist(ctx, tfbPayload(t, 30000, 2000, 31))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := c.Submit(ctx, api.JobRequest{
		Kind:    api.KindFind,
		Digest:  info.Digest,
		Options: options(t, map[string]any{"seeds": 5000, "max_order_len": 12000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it holds the only worker, then cancel it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := c.Job(ctx, slow.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow job never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Wait(ctx, slow.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.StateCancelled {
		t.Fatalf("cancelled job state = %s", got.State)
	}

	quick, err := c.Submit(ctx, api.JobRequest{
		Kind:    api.KindFind,
		Digest:  info.Digest,
		Options: options(t, map[string]any{"seeds": 4, "max_order_len": 2000}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Wait(ctx, quick.ID, 10*time.Millisecond); err != nil || got.State != api.StateDone {
		t.Fatalf("follow-up job after cancel: %+v, %v", got, err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Cancelled != 1 || stats.Jobs.Completed != 1 {
		t.Errorf("stats = %+v", stats.Jobs)
	}
}

// TestHTTPErrors locks the API's failure statuses.
func TestHTTPErrors(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	wantStatus := func(err error, code int) {
		t.Helper()
		var ae *client.APIError
		if err == nil {
			t.Error("expected an error")
			return
		}
		if !errors.As(err, &ae) || ae.StatusCode != code {
			t.Errorf("error = %v, want HTTP %d", err, code)
		}
	}

	_, err := c.UploadNetlist(ctx, []byte("definitely not a netlist"))
	wantStatus(err, http.StatusBadRequest)
	_, err = c.UploadNetlist(ctx, nil)
	wantStatus(err, http.StatusBadRequest)
	_, err = c.Netlist(ctx, "missing-digest")
	wantStatus(err, http.StatusNotFound)
	_, err = c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: "missing-digest"})
	wantStatus(err, http.StatusNotFound)
	_, err = c.Job(ctx, "job-999999")
	wantStatus(err, http.StatusNotFound)
	_, err = c.Cancel(ctx, "job-999999")
	wantStatus(err, http.StatusNotFound)

	info, err := c.UploadNetlist(ctx, tfbPayload(t, 2000, 0, 41))
	if err != nil {
		t.Fatal(err)
	}
	// Malformed values and unknown fields are both rejected before a
	// job exists.
	for _, opts := range []string{`{"seeds": "many"}`, `{"relabel": true}`} {
		_, err = c.Submit(ctx, api.JobRequest{
			Kind:    api.KindFind,
			Digest:  info.Digest,
			Options: json.RawMessage(opts),
		})
		wantStatus(err, http.StatusBadRequest)
	}
	_, err = c.Submit(ctx, api.JobRequest{Kind: "unknown", Digest: info.Digest})
	wantStatus(err, http.StatusBadRequest)

	// Health endpoint speaks plain text.
	resp, err := http.Get(c.BaseURL() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

// TestEvictedDigestIsGone exercises the 410 path: a tiny pin budget
// evicts the first upload once a second arrives.
func TestEvictedDigestIsGone(t *testing.T) {
	st := store.New(1)
	mgr := jobs.New(jobs.Config{Store: st, Workers: 1})
	hs := httptest.NewServer(New(st, mgr).Handler())
	t.Cleanup(func() {
		hs.Close()
		mgr.Shutdown(context.Background())
	})
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	first, err := c.UploadNetlist(ctx, tfbPayload(t, 2000, 0, 51))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadNetlist(ctx, tfbPayload(t, 2000, 0, 52)); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: first.Digest})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusGone {
		t.Fatalf("evicted digest error = %v, want HTTP 410", err)
	}
	// The tombstone is still listed, marked unloaded.
	got, err := c.Netlist(ctx, first.Digest)
	if err != nil || got.Loaded {
		t.Errorf("tombstone = %+v, %v", got, err)
	}
}

// backgroundEditDoc builds a pin-preserving JSON delta editing a net
// whose pins all live in the top half of the id space (background
// territory: generated workloads plant blocks at the low ids).
func backgroundEdit(t *testing.T, nl *tanglefind.Netlist, salt int32) *tanglefind.Delta {
	t.Helper()
	for e := nl.NumNets() - 1 - int(salt); e >= 0; e-- {
		pins := nl.NetPins(tanglefind.NetID(e))
		ok := len(pins) >= 2
		for _, c := range pins {
			if int(c) < nl.NumCells()/2 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		return &tanglefind.Delta{SetNets: []tanglefind.NetEdit{{
			Net:   tanglefind.NetID(e),
			Cells: []tanglefind.CellID{pins[0], pins[0] - 1 - tanglefind.CellID(salt%7)},
		}}}
	}
	t.Fatal("no background net found")
	return nil
}

func backgroundEditDoc(t *testing.T, nl *tanglefind.Netlist, salt int32) []byte {
	t.Helper()
	doc, err := json.Marshal(backgroundEdit(t, nl, salt))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestDeltaAndIncrementalFlow drives the ECO loop over HTTP: upload,
// recorded find, POST a delta, find_incremental on the child — the
// incremental result must reuse seeds and agree with a full run.
func TestDeltaAndIncrementalFlow(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	payload := tfbPayload(t, 9000, 400, 61)
	parent, err := c.UploadNetlist(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := tanglefind.ReadNetlist(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	opts := options(t, map[string]any{"seeds": 16, "max_order_len": 700, "record_incremental": true})

	base, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: parent.Digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, base.ID, 5*time.Millisecond); err != nil || st.State != api.StateDone {
		t.Fatalf("base run: %+v, %v", st, err)
	}

	dres, err := c.ApplyDelta(ctx, parent.Digest, backgroundEdit(t, nl, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dres.Parent != parent.Digest || dres.Netlist.Digest == parent.Digest || dres.DirtyCells == 0 {
		t.Fatalf("delta result: %+v", dres)
	}
	if dres.Netlist.Parent != parent.Digest {
		t.Fatalf("child lineage missing: %+v", dres.Netlist)
	}

	// The typed convenience submitter must land on the same state the
	// raw-options base run recorded (options canonicalize equally).
	incrOpt := tanglefind.DefaultOptions()
	incrOpt.Seeds = 16
	incrOpt.MaxOrderLen = 700
	incrOpt.RecordIncremental = true
	incr, err := c.SubmitFindIncremental(ctx, dres.Netlist.Digest, &incrOpt)
	if err != nil {
		t.Fatal(err)
	}
	ist, err := c.Wait(ctx, incr.ID, 5*time.Millisecond)
	if err != nil || ist.State != api.StateDone || ist.Result == nil {
		t.Fatalf("incremental job: %+v, %v", ist, err)
	}
	if ist.Result.Incremental == nil || ist.Result.Incremental.FullFallback || ist.Result.Incremental.ReusedSeeds == 0 {
		t.Fatalf("no reuse over HTTP: %+v", ist.Result.Incremental)
	}

	full, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: dres.Netlist.Digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	fst, err := c.Wait(ctx, full.ID, 5*time.Millisecond)
	if err != nil || fst.State != api.StateDone {
		t.Fatalf("full child run: %+v, %v", fst, err)
	}
	if len(fst.Result.GTLs) != len(ist.Result.GTLs) || fst.Result.Candidates != ist.Result.Candidates {
		t.Fatalf("incremental diverged over HTTP: %d/%d GTLs", len(ist.Result.GTLs), len(fst.Result.GTLs))
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.IncrementalRuns != 1 {
		t.Errorf("incremental runs = %d", stats.Jobs.IncrementalRuns)
	}
}

// TestDeltaHTTPErrors locks the delta/incremental failure statuses:
// 404 unknown parent, 400 malformed delta or missing lineage, and an
// accepted multilevel incremental job (not a 4xx or 500).
func TestDeltaHTTPErrors(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	wantStatus := func(err error, code int) {
		t.Helper()
		var ae *client.APIError
		if err == nil || !errors.As(err, &ae) || ae.StatusCode != code {
			t.Errorf("error = %v, want HTTP %d", err, code)
		}
	}

	_, err := c.ApplyDeltaJSON(ctx, "missing-digest", []byte(`{}`))
	wantStatus(err, http.StatusNotFound)

	payload := tfbPayload(t, 4000, 300, 62)
	parent, err := c.UploadNetlist(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ApplyDeltaJSON(ctx, parent.Digest, []byte(`{"nope":true}`))
	wantStatus(err, http.StatusBadRequest)
	_, err = c.ApplyDeltaJSON(ctx, parent.Digest, []byte(`{"remove_cells":[123456789]}`))
	wantStatus(err, http.StatusBadRequest)

	// find_incremental without lineage: 400.
	_, err = c.Submit(ctx, api.JobRequest{Kind: api.KindFindIncremental, Digest: parent.Digest})
	wantStatus(err, http.StatusBadRequest)

	nl, err := tanglefind.ReadNetlist(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := c.ApplyDeltaJSON(ctx, parent.Digest, backgroundEditDoc(t, nl, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Incremental + multilevel composes now: the submit is accepted
	// and the job completes (as a reported full fallback here — the
	// parent has no recorded multilevel run to chain from).
	mlst, err := c.Submit(ctx, api.JobRequest{
		Kind:    api.KindFindIncremental,
		Digest:  dres.Netlist.Digest,
		Options: options(t, map[string]any{"levels": 3, "seeds": 8, "max_order_len": 600}),
	})
	if err != nil {
		t.Fatalf("multilevel incremental submit = %v, want accepted", err)
	}
	got, err := c.Wait(ctx, mlst.ID, 5*time.Millisecond)
	if err != nil || got.State != api.StateDone || got.Result == nil || got.Result.Incremental == nil {
		t.Fatalf("multilevel incremental over HTTP: %+v, %v", got, err)
	}
	if !got.Result.Incremental.FullFallback {
		t.Error("first-in-chain multilevel incremental should report a full fallback")
	}
}

// TestConcurrentDeltaIngestAndIncrementalJobs is the race-detector
// target for the delta pipeline: many goroutines apply distinct (and
// sometimes identical) deltas against one parent digest while
// submitting incremental jobs on the children and polling stats. Run
// with -race (the CI race shard does).
func TestConcurrentDeltaIngestAndIncrementalJobs(t *testing.T) {
	st := store.New(0)
	mgr := jobs.New(jobs.Config{Store: st, Workers: 2, QueueDepth: 64})
	hs := httptest.NewServer(New(st, mgr).Handler())
	t.Cleanup(func() {
		hs.Close()
		mgr.Shutdown(context.Background())
	})
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	payload := tfbPayload(t, 9000, 400, 63)
	parent, err := c.UploadNetlist(ctx, payload)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := tanglefind.ReadNetlist(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	opts := options(t, map[string]any{"seeds": 12, "max_order_len": 600, "record_incremental": true})
	base, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: parent.Digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Wait(ctx, base.ID, 5*time.Millisecond); err != nil || got.State != api.StateDone {
		t.Fatalf("base: %+v, %v", got, err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				// Half the goroutines collide on identical deltas, so
				// concurrent registration of one child digest races too.
				salt := int32(w%4*3 + i)
				dres, err := c.ApplyDeltaJSON(ctx, parent.Digest, backgroundEditDoc(t, nl, salt))
				if err != nil {
					errs <- fmt.Errorf("worker %d: delta: %w", w, err)
					return
				}
				jst, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFindIncremental, Digest: dres.Netlist.Digest, Options: opts})
				if err != nil {
					errs <- fmt.Errorf("worker %d: submit: %w", w, err)
					return
				}
				got, err := c.Wait(ctx, jst.ID, 5*time.Millisecond)
				if err != nil || got.State != api.StateDone || got.Result == nil || got.Result.Incremental == nil {
					errs <- fmt.Errorf("worker %d: job %s: %+v, %v", w, jst.ID, got, err)
					return
				}
				if _, err := c.Stats(ctx); err != nil {
					errs <- fmt.Errorf("worker %d: stats: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
