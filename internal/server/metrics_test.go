package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tanglefind"
	"tanglefind/api"
)

// ---------------------------------------------------------------------
// A hand-rolled Prometheus text-format parser. The exposition writer
// in internal/telemetry is hand-written too, so the lock here is
// deliberately strict: every line must round-trip through an
// independent reading of the format, not through the writer's own
// assumptions.
// ---------------------------------------------------------------------

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promFamily struct {
	name    string
	typ     string
	help    string
	samples []promSample
}

// parsePromText parses a text exposition, failing the test on any
// deviation from the format: samples without a preceding TYPE,
// malformed label quoting, unparsable values.
func parsePromText(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var order []string
	var cur *promFamily
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			cur = &promFamily{name: name, help: help}
			if fams[name] != nil {
				t.Fatalf("line %d: duplicate family %q", ln+1, name)
			}
			fams[name] = cur
			order = append(order, name)
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || cur == nil || cur.name != name {
				t.Fatalf("line %d: TYPE out of order: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, typ)
			}
			cur.typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s := parsePromSample(t, ln+1, line)
		if cur == nil || cur.typ == "" {
			t.Fatalf("line %d: sample %q before any # TYPE", ln+1, s.name)
		}
		base := s.name
		if cur.typ == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(s.name, suffix); ok && b == cur.name {
					base = b
					break
				}
			}
		}
		if base != cur.name {
			t.Fatalf("line %d: sample %q under family %q", ln+1, s.name, cur.name)
		}
		cur.samples = append(cur.samples, s)
	}
	if !sort.StringsAreSorted(order) {
		t.Errorf("families not sorted: %v", order)
	}
	return fams
}

// parsePromSample parses `name{l="v",...} value` with full
// label-value unescaping (\\, \", \n).
func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	}
	s.name = line[:i]
	for _, r := range s.name {
		if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			t.Fatalf("line %d: bad metric name %q", ln, s.name)
		}
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			eq := strings.Index(rest, "=")
			if eq < 0 {
				t.Fatalf("line %d: label without =: %q", ln, line)
			}
			key := rest[:eq]
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				t.Fatalf("line %d: unquoted label value: %q", ln, line)
			}
			rest = rest[1:]
			var val strings.Builder
			for {
				if len(rest) == 0 {
					t.Fatalf("line %d: unterminated label value: %q", ln, line)
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					switch rest[0] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						t.Fatalf("line %d: bad escape \\%c", ln, rest[0])
					}
					rest = rest[1:]
					continue
				}
				val.WriteByte(c)
			}
			s.labels[key] = val.String()
			if rest[0] == ',' {
				rest = rest[1:]
				continue
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			t.Fatalf("line %d: bad label separator: %q", ln, line)
		}
	}
	valStr := strings.TrimSpace(rest)
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil && valStr != "+Inf" {
		t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
	}
	s.value = v
	return s
}

// value finds the single sample matching name and labels; -1 if none.
// Histogram _bucket/_sum/_count samples resolve through their base
// family.
func famValue(fams map[string]*promFamily, name string, labels map[string]string) float64 {
	f := fams[name]
	if f == nil {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok {
				f = fams[base]
				break
			}
		}
	}
	if f == nil {
		return -1
	}
	for _, s := range f.samples {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match && len(s.labels) == len(labels) {
			return s.value
		}
	}
	return -1
}

// TestMetricsParseBack drives real jobs through the stack, scrapes
// GET /metrics, re-parses every family with an independent parser and
// cross-checks the mirrored values against GET /v1/stats.
func TestMetricsParseBack(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	info, err := c.UploadNetlist(ctx, tfbPayload(t, 6000, 500, 21))
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]any{"seeds": 8, "max_order_len": 400}
	st, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: info.Digest, Options: options(t, opts)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 0); err != nil || st.State != api.StateDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	// Identical resubmission: a cache hit, so hit and miss counters
	// both have data.
	if hit, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: info.Digest, Options: options(t, opts)}); err != nil || !hit.Cached {
		t.Fatalf("expected cache hit: %+v, %v", hit, err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fams := parsePromText(t, text)
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The whole catalog by name, type and label names: a renamed,
	// retyped, relabeled, added or dropped family fails here.
	catalog := map[string]string{
		"gtl_engine_runs_by_levels_total":   "counter{levels}",
		"gtl_engine_runs_total":             "counter{}",
		"gtl_http_request_seconds":          "histogram{route,status}",
		"gtl_incremental_fallbacks_total":   "counter{}",
		"gtl_incremental_runs_total":        "counter{}",
		"gtl_incremental_state_bytes":       "gauge{}",
		"gtl_job_cache_hits_total":          "counter{}",
		"gtl_job_cache_total":               "counter{result}",
		"gtl_job_cached_results":            "gauge{}",
		"gtl_job_journal_errors_total":      "counter{}",
		"gtl_job_results_rewarmed_total":    "counter{}",
		"gtl_job_stage_seconds":             "histogram{kind,stage}",
		"gtl_jobs_coalesced_total":          "counter{}",
		"gtl_jobs_finished_total":           "counter{kind,outcome}",
		"gtl_jobs_in_flight":                "gauge{kind}",
		"gtl_jobs_queue_depth":              "gauge{}",
		"gtl_jobs_queued":                   "gauge{}",
		"gtl_jobs_running":                  "gauge{}",
		"gtl_jobs_submitted_total":          "counter{}",
		"gtl_lint_incremental_total":        "counter{}",
		"gtl_lint_runs_total":               "counter{}",
		"gtl_parallel_seeds_stolen_total":   "counter{}",
		"gtl_store_durable":                 "gauge{}",
		"gtl_store_engine_bytes":            "gauge{}",
		"gtl_store_evictions_total":         "counter{}",
		"gtl_store_journal_truncated_bytes": "gauge{}",
		"gtl_store_lazy_reloads_total":      "counter{}",
		"gtl_store_netlists_loaded":         "gauge{}",
		"gtl_store_pin_budget":              "gauge{}",
		"gtl_store_pins_loaded":             "gauge{}",
		"gtl_store_recovered_netlists":      "gauge{}",
		"gtl_store_recovered_results":       "gauge{}",
		"gtl_store_tombstones":              "gauge{}",
		"gtl_worker_grants_total":           "counter{outcome}",
	}
	if len(catalog) != 34 {
		t.Fatalf("catalog lists %d families, want 34", len(catalog))
	}
	for name, f := range fams {
		names := map[string]bool{}
		for _, s := range f.samples {
			for k := range s.labels {
				if k != "le" {
					names[k] = true
				}
			}
		}
		labels := make([]string, 0, len(names))
		for k := range names {
			labels = append(labels, k)
		}
		sort.Strings(labels)
		got := f.typ + "{" + strings.Join(labels, ",") + "}"
		if want, ok := catalog[name]; !ok {
			t.Errorf("family %s (%s) is not in the catalog", name, got)
		} else if got != want {
			t.Errorf("family %s is %s, want %s", name, got, want)
		}
	}
	for name := range catalog {
		if fams[name] == nil {
			t.Errorf("family %s missing from /metrics", name)
		}
	}

	// Every mirrored counter/gauge equals the stats payload (the stack
	// is quiesced: one done job, one cache hit, nothing running).
	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"gtl_jobs_submitted_total", nil, float64(stats.Jobs.Submitted)},
		{"gtl_job_cache_hits_total", nil, float64(stats.Jobs.CacheHits)},
		{"gtl_engine_runs_total", nil, float64(stats.Jobs.EngineRuns)},
		{"gtl_jobs_queue_depth", nil, float64(stats.Jobs.QueueDepth)},
		{"gtl_jobs_queued", nil, 0},
		{"gtl_jobs_running", nil, 0},
		{"gtl_job_cached_results", nil, float64(stats.Jobs.CachedSets)},
		{"gtl_store_netlists_loaded", nil, float64(stats.Store.Netlists)},
		{"gtl_store_pins_loaded", nil, float64(stats.Store.PinsLoaded)},
		{"gtl_store_evictions_total", nil, float64(stats.Store.Evictions)},
		{"gtl_jobs_finished_total", map[string]string{"kind": "find", "outcome": "done"}, 1},
		{"gtl_job_cache_total", map[string]string{"result": "hit"}, 1},
		{"gtl_job_cache_total", map[string]string{"result": "miss"}, 1},
		{"gtl_engine_runs_by_levels_total", map[string]string{"levels": "1"}, 1},
	}
	for _, ck := range checks {
		if got := famValue(fams, ck.name, ck.labels); got != ck.want {
			t.Errorf("%s%v = %v, want %v", ck.name, ck.labels, got, ck.want)
		}
	}
	if famValue(fams, "gtl_jobs_in_flight", map[string]string{"kind": "find"}) != 0 {
		t.Error("gtl_jobs_in_flight{kind=find} should be 0 when quiesced")
	}

	// Counters must be non-negative and histograms internally
	// consistent: cumulative buckets ending in +Inf, whose value
	// equals _count.
	for name, f := range fams {
		switch f.typ {
		case "counter":
			for _, s := range f.samples {
				if s.value < 0 {
					t.Errorf("counter %s went negative: %v", name, s.value)
				}
			}
		case "histogram":
			checkHistogram(t, f)
		}
	}

	// The stage histogram saw the done job: the find/engine cell has
	// exactly one observation, and queue_wait/merge cells exist.
	for _, stage := range []string{"queue_wait", "engine", "merge", "engine_grow"} {
		got := famValue(fams, "gtl_job_stage_seconds_count", map[string]string{"kind": "find", "stage": stage})
		if got != 1 {
			t.Errorf("gtl_job_stage_seconds_count{kind=find,stage=%s} = %v, want 1", stage, got)
		}
	}

	// The scrape itself was measured on a previous request? No — the
	// latency histogram records after the handler returns, so at
	// minimum the upload, waits and stats calls are present.
	if famValue(fams, "gtl_http_request_seconds_count", map[string]string{"route": "POST /v1/netlists", "status": "201"}) < 1 {
		t.Error("upload request not recorded in gtl_http_request_seconds")
	}
}

// checkHistogram asserts each child's buckets are cumulative,
// monotone, le-sorted and capped by a +Inf bucket equal to _count.
func checkHistogram(t *testing.T, f *promFamily) {
	t.Helper()
	type key string
	buckets := map[key][]promSample{}
	sums := map[key]float64{}
	counts := map[key]float64{}
	childKey := func(s promSample) key {
		parts := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			if k != "le" {
				parts = append(parts, k+"="+v)
			}
		}
		sort.Strings(parts)
		return key(strings.Join(parts, ","))
	}
	for _, s := range f.samples {
		switch s.name {
		case f.name + "_bucket":
			buckets[childKey(s)] = append(buckets[childKey(s)], s)
		case f.name + "_sum":
			sums[childKey(s)] = s.value
		case f.name + "_count":
			counts[childKey(s)] = s.value
		default:
			t.Errorf("histogram %s has stray sample %s", f.name, s.name)
		}
	}
	for k, bs := range buckets {
		prev := -1.0
		prevLe := ""
		for i, b := range bs {
			if b.value < prev {
				t.Errorf("%s{%s}: bucket %q value %v < previous %v", f.name, k, b.labels["le"], b.value, prev)
			}
			prev = b.value
			prevLe = b.labels["le"]
			last := i == len(bs)-1
			if last && prevLe != "+Inf" {
				t.Errorf("%s{%s}: last bucket le=%q, want +Inf", f.name, k, prevLe)
			}
			if !last {
				le, err := strconv.ParseFloat(b.labels["le"], 64)
				if err != nil {
					t.Errorf("%s{%s}: bad le %q", f.name, k, b.labels["le"])
				}
				if i > 0 {
					leP, _ := strconv.ParseFloat(bs[i-1].labels["le"], 64)
					if le <= leP {
						t.Errorf("%s{%s}: le not increasing: %v after %v", f.name, k, le, leP)
					}
				}
			}
		}
		if prev != counts[k] {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", f.name, k, prev, counts[k])
		}
		if _, ok := sums[k]; !ok {
			t.Errorf("%s{%s}: missing _sum", f.name, k)
		}
	}
}

// TestObservabilityEndToEnd locks the request-ID and stage-timing
// plumbing: the header round-trips, the submitted job carries it, the
// finished result and terminal SSE event both carry the non-empty
// queue_wait → engine → merge breakdown, and a cached resubmission
// returns the populating run's breakdown.
func TestObservabilityEndToEnd(t *testing.T) {
	c, _ := newTestServer(t)
	ctx := context.Background()

	// A client-supplied request ID is honored and echoed.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL()+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("echoed request ID = %q, want trace-me-42", got)
	}
	// Absent one, the server mints a non-empty ID.
	bare, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL()+"/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	respBare, err := http.DefaultClient.Do(bare)
	if err != nil {
		t.Fatal(err)
	}
	respBare.Body.Close()
	if respBare.Header.Get("X-Request-ID") == "" {
		t.Error("server did not mint a request ID")
	}

	info, err := c.UploadNetlist(ctx, tfbPayload(t, 6000, 500, 21))
	if err != nil {
		t.Fatal(err)
	}

	// Submit with an explicit request ID via raw HTTP so the header is
	// under test control; the job status must carry it back.
	body, _ := json.Marshal(api.JobRequest{Kind: api.KindFind, Digest: info.Digest,
		Options: options(t, map[string]any{"seeds": 8, "max_order_len": 400})})
	sub, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL()+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	sub.Header.Set("Content-Type", "application/json")
	sub.Header.Set("X-Request-ID", "corr-7")
	sresp, err := http.DefaultClient.Do(sub)
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", sresp.StatusCode)
	}
	if st.RequestID != "corr-7" {
		t.Errorf("job RequestID = %q, want corr-7", st.RequestID)
	}

	done, err := c.Wait(ctx, st.ID, 0)
	if err != nil || done.State != api.StateDone {
		t.Fatalf("wait: %+v, %v", done, err)
	}
	if done.RequestID != "corr-7" {
		t.Errorf("finished job RequestID = %q", done.RequestID)
	}
	if done.Result == nil {
		t.Fatal("done without result")
	}
	assertBreakdown(t, "result", done.Result.Stages)

	// The terminal SSE event carries the same breakdown (a subscriber
	// on a finished job gets the terminal snapshot immediately).
	var last api.Event
	if err := c.StreamEvents(ctx, st.ID, func(ev api.Event) bool { last = ev; return true }); err != nil {
		t.Fatal(err)
	}
	if last.State != api.StateDone {
		t.Fatalf("terminal event state = %v", last.State)
	}
	assertBreakdown(t, "terminal event", last.Stages)

	// A cached resubmission returns the populating run's breakdown.
	hit, err := c.Submit(ctx, api.JobRequest{Kind: api.KindFind, Digest: info.Digest,
		Options: options(t, map[string]any{"seeds": 8, "max_order_len": 400})})
	if err != nil || !hit.Cached {
		t.Fatalf("expected cache hit: %+v, %v", hit, err)
	}
	assertBreakdown(t, "cached result", hit.Result.Stages)

	// Lint jobs complete with a breakdown too — "every completed job".
	lst, err := c.SubmitLint(ctx, info.Digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lst, err = c.Wait(ctx, lst.ID, 0); err != nil || lst.State != api.StateDone {
		t.Fatalf("lint wait: %+v, %v", lst, err)
	}
	if lst.Result == nil || len(lst.Result.Stages) == 0 {
		t.Fatalf("lint result missing stages: %+v", lst.Result)
	}
	for _, stage := range []string{"queue_wait", "engine", "merge"} {
		if _, ok := lst.Result.Stages[stage]; !ok {
			t.Errorf("lint breakdown missing %q: %v", stage, lst.Result.Stages)
		}
	}
}

// assertBreakdown checks the jobs-layer stages plus the engine's own
// phases are present, and the engine stage positive.
func assertBreakdown(t *testing.T, where string, stages tanglefind.StageTimings) {
	t.Helper()
	if len(stages) == 0 {
		t.Fatalf("%s: empty stage breakdown", where)
	}
	for _, stage := range []string{"queue_wait", "engine", "merge", "engine_grow", "engine_prune"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("%s: stage %q missing: %v", where, stage, stages)
		}
		if stages[stage] < 0 {
			t.Errorf("%s: stage %q negative: %v", where, stage, stages[stage])
		}
	}
	if stages["engine"] <= 0 {
		t.Errorf("%s: engine stage not positive: %v", where, stages)
	}
}
