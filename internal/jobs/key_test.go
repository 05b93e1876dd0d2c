package jobs

import (
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
	const wantCache = `find|d|64|{"seeds":100,"max_order_len":100000,"metric":"gtlsd","ordering":"weighted","min_group_size":24,"accept_threshold":0.8,"dip_ratio":0.75,"big_net_skip":20,"refine_seeds":3,"prune_overlap_tolerance":0.02,"refine":true,"levels":1,"min_coarse_cells":0,"refine_radius":2,"incremental_fallback":0.25,"rand_seed":1}`
	const wantIncr = `{"seeds":100,"max_order_len":100000,"metric":"gtlsd","ordering":"weighted","min_group_size":24,"accept_threshold":0.8,"dip_ratio":0.75,"big_net_skip":20,"refine_seeds":3,"prune_overlap_tolerance":0.02,"refine":true,"levels":1,"min_coarse_cells":0,"refine_radius":2,"incremental_fallback":0,"rand_seed":1}`
	opt := tanglefind.DefaultOptions()
	if got := cacheKey(api.KindFind, "d", 64, opt); got != wantCache {
		t.Errorf("default cache key changed:\n got %s\nwant %s", got, wantCache)
	}
	if got := opt.IncrementalKey(); got != wantIncr {
		t.Errorf("default incremental key changed:\n got %s\nwant %s", got, wantIncr)
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
