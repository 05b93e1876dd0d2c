package jobs

import (
	"context"
	"encoding/json"
	"testing"

	"tanglefind/api"
	"tanglefind/internal/store"
)

// TestIncrementalLookupKeysOnRequestedOptions: the engine, not the
// service, caps an over-long ordering at ⌊|V|/2⌋, so the parent-state
// lookup keys on the options as submitted. A recorded find at the
// default max_order_len on 9,000 cells, then a delta adding two
// isolated cells, must find the recorded state and fall back only
// because the effective cap moved from 4,500 to 4,501. A lookup keyed
// on a cap clamped above the engine misses the recording and reports
// that there is no state at all.
func TestIncrementalLookupKeysOnRequestedOptions(t *testing.T) {
	s, digest := registered(t, 9000, 400, 61)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	opts, err := json.Marshal(map[string]any{"seeds": 16, "record_incremental": true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if st := wait(t, m, base.ID); st.State != api.StateDone {
		t.Fatalf("recorded find: %s (%s)", st.State, st.Error)
	}
	grown, err := s.ApplyDelta(digest, []byte(`{"add_cells":[{"name":"eco0"},{"name":"eco1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	incr, err := m.Submit(api.JobRequest{Kind: api.KindFindIncremental, Digest: grown.Netlist.Digest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st := wait(t, m, incr.ID)
	if st.State != api.StateDone || st.Result == nil || st.Result.Incremental == nil {
		t.Fatalf("incremental job: %s (%s)", st.State, st.Error)
	}
	const want = "effective ordering cap changed (4500 -> 4501)"
	if br := st.Result.Incremental; !br.FullFallback || br.FallbackReason != want {
		t.Fatalf("incremental breakdown = %+v, want a full fallback because %q", br, want)
	}
}

// TestTinyNetlistFindCompletes: a netlist under four cells has no room
// for an ordering with an exterior, yet a find over it is a valid
// request that completes and reports no GTL.
func TestTinyNetlistFindCompletes(t *testing.T) {
	s := store.New(0)
	info, err := s.Ingest([]byte("tfnet 1\ncells 3\nnet a 0 1\nnet b 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	sub, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: info.Digest})
	if err != nil {
		t.Fatalf("3-cell find rejected: %v", err)
	}
	st := wait(t, m, sub.ID)
	if st.State != api.StateDone || st.Result == nil {
		t.Fatalf("3-cell find: %s (%s)", st.State, st.Error)
	}
	if n := len(st.Result.GTLs); n != 0 {
		t.Errorf("3-cell find reported %d GTLs, want 0", n)
	}
}
