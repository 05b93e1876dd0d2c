package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"tanglefind"
	"tanglefind/api"
)

// TestCacheKeyOptionIdentity pins the canonical cache-key contract:
// result-affecting options (Levels among them) produce distinct keys,
// scheduling-only options (Workers) share one, and the default
// options' cache and incremental keys stay byte for byte what they
// are. Results journaled under -data-dir are rewarmed by cache key
// after a restart, so an option edit that changes the default keys
// silently orphans every stored result; such a change must be
// deliberate and update the literals here.
func TestCacheKeyOptionIdentity(t *testing.T) {
	const wantKey = `{"seeds":100,"max_order_len":100000,"metric":"gtlsd","ordering":"weighted","min_group_size":24,"accept_threshold":0.8,"dip_ratio":0.75,"big_net_skip":20,"refine_seeds":3,"prune_overlap_tolerance":0.02,"refine":true,"levels":1,"min_coarse_cells":0,"refine_radius":0,"rand_seed":1}`
	opt := tanglefind.DefaultOptions()
	if got := cacheKey(api.KindFind, "d", 64, opt); got != "find|d|64|"+wantKey {
		t.Errorf("default cache key changed:\n got %s\nwant find|d|64|%s", got, wantKey)
	}
	if got := incrKey("d", opt); got != "d|"+wantKey {
		t.Errorf("default incremental key changed:\n got %s\nwant d|%s", got, wantKey)
	}

	base := cacheKey(api.KindFind, "digest", 64, opt)
	ml := opt
	ml.Levels = 3
	if cacheKey(api.KindFind, "digest", 64, ml) == base {
		t.Fatal("multilevel runs share a cache line with flat runs")
	}

	wrk := opt
	wrk.Workers = 8
	if cacheKey(api.KindFind, "digest", 64, wrk) != base {
		t.Fatal("worker count leaked into the cache key")
	}
}

// TestUnreadOptionsShareOneRun: find submissions that differ only in
// what the run never reads are one computation. One after another on
// one netlist, seven jobs cost three engine runs — the base request,
// the first recording request (a cache hit cannot prime recorded
// state) and the first with refinement off — and four cache hits, each
// returning exactly its run's result.
func TestUnreadOptionsShareOneRun(t *testing.T) {
	s, digest := registered(t, 3000, 300, 5)
	m := New(Config{Store: s, Workers: 1})
	defer m.Shutdown(context.Background())

	var runs []*api.JobResult
	for _, tc := range []struct {
		extra string
		hit   bool
	}{
		{``, false},
		{`,"refine_radius":5`, true},
		{`,"min_coarse_cells":700`, true},
		{`,"levels":0`, true},
		{`,"record_incremental":true`, false},
		{`,"refine":false,"refine_seeds":5`, false},
		{`,"refine":false,"refine_seeds":3`, true},
	} {
		opts := `{"seeds":16,"max_order_len":1200` + tc.extra + `}`
		st, err := m.Submit(api.JobRequest{Kind: api.KindFind, Digest: digest, Options: json.RawMessage(opts)})
		if err != nil {
			t.Fatalf("%s: %v", opts, err)
		}
		if st.Cached != tc.hit {
			t.Fatalf("%s: cached = %v, want %v", opts, st.Cached, tc.hit)
		}
		st = wait(t, m, st.ID)
		if st.State != api.StateDone || st.Result == nil {
			t.Fatalf("%s: %s (%s)", opts, st.State, st.Error)
		}
		if !tc.hit {
			runs = append(runs, st.Result)
			continue
		}
		run := runs[len(runs)-1]
		if !reflect.DeepEqual(st.Result.GTLs, run.GTLs) || st.Result.Candidates != run.Candidates || st.Result.SeedsRun != run.SeedsRun {
			t.Fatalf("%s: cache hit differs from the run it hit", opts)
		}
	}
	// The recording run is the base computation again.
	if !reflect.DeepEqual(runs[1].GTLs, runs[0].GTLs) {
		t.Error("recording changed the detected groups")
	}
	if st := m.Stats(); st.EngineRuns != 3 || st.CacheHits != 4 {
		t.Errorf("engine runs = %d, cache hits = %d; want 3 and 4", st.EngineRuns, st.CacheHits)
	}
}
