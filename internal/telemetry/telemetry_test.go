package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.")
	g := r.Gauge("test_depth", "A test gauge.")
	c.Set(3)
	g.Set(7)
	g.Set(4)

	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_total A test counter.\n",
		"# TYPE test_total counter\n",
		"test_total 3\n",
		"# TYPE test_depth gauge\n",
		"test_depth 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabelsAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_labeled_total", `Help with backslash \ and`+"\nnewline.", "kind", "outcome")
	v.With("find", "done").Set(5)
	v.With(`we"ird\val`+"\nue", "x").Set(1)

	out := scrape(t, r)
	if !strings.Contains(out, `# HELP test_labeled_total Help with backslash \\ and\nnewline.`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `test_labeled_total{kind="find",outcome="done"} 5`) {
		t.Errorf("labeled sample missing:\n%s", out)
	}
	if !strings.Contains(out, `test_labeled_total{kind="we\"ird\\val\nue",outcome="x"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	// Same label values resolve to the same child.
	v.With("find", "done").Set(6)
	if got := scrape(t, r); !strings.Contains(got, `{kind="find",outcome="done"} 6`) || strings.Count(got, `{kind="find",outcome="done"}`) != 1 {
		t.Errorf("With not stable across calls:\n%s", got)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("test_seconds", "Latency.", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := scrape(t, r)
	for _, want := range []string{
		"# TYPE test_seconds histogram\n",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_sum 56.05",
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVecDefBuckets(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_vec_seconds", "Latency by kind.", nil, "kind")
	hv.With("find").Observe(0.003)
	out := scrape(t, r)
	if !strings.Contains(out, `test_vec_seconds_bucket{kind="find",le="0.005"} 1`) {
		t.Errorf("DefBuckets sample missing:\n%s", out)
	}
	if !strings.Contains(out, `test_vec_seconds_count{kind="find"} 1`) {
		t.Errorf("count with labels missing:\n%s", out)
	}
}

func TestFamiliesSortedAndHooksRun(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "Last.")
	g := r.Gauge("aaa_depth", "First.")
	hooked := false
	r.OnScrape(func() { hooked = true; g.Set(42) })

	out := scrape(t, r)
	if !hooked {
		t.Fatal("OnScrape hook did not run")
	}
	if !strings.Contains(out, "aaa_depth 42\n") {
		t.Errorf("hook-set value not exported:\n%s", out)
	}
	if strings.Index(out, "aaa_depth") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "x")
	mustPanic("duplicate", func() { r.Gauge("dup_total", "y") })
	mustPanic("bad metric name", func() { r.Counter("bad-name", "x") })
	mustPanic("bad label name", func() { r.CounterVec("ok_total", "x", "bad-label") })
	mustPanic("reserved label", func() { r.CounterVec("ok2_total", "x", "__reserved") })
	mustPanic("label arity", func() { r.CounterVec("ok3_total", "x", "a", "b").With("only-one") })
}

// TestConcurrentUpdates mirrors the production pattern under
// concurrency: workers bump their own count and observe through
// With, while scrapes run beside them and a hook Sets the counter.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var n atomic.Int64
	c := r.Counter("conc_total", "x")
	r.OnScrape(func() { c.Set(float64(n.Load())) })
	hv := r.HistogramVec("conc_seconds", "x", []float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n.Add(1)
				hv.With().Observe(0.5)
				if i%250 == 0 {
					r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	out := scrape(t, r)
	for _, want := range []string{"conc_total 8000\n", "conc_seconds_count 8000"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestStageTimings(t *testing.T) {
	st := StageTimings{}
	st.Add("grow", 120*time.Millisecond)
	st.Add("grow", 30*time.Millisecond)
	st.Add("score", 50*time.Millisecond)
	st.Merge(StageTimings{"score": 10 * time.Millisecond, "prune": 5 * time.Millisecond})
	st.Merge(nil) // no-op

	if st["grow"] != 150*time.Millisecond || st["score"] != 60*time.Millisecond {
		t.Fatalf("accumulation wrong: %v", st)
	}
	if got := st.String(); got != "grow=150ms score=60ms prune=5ms" {
		t.Errorf("String = %q", got)
	}
	if got := st.Top(2); got != "grow=150ms score=60ms (+1)" {
		t.Errorf("Top(2) = %q", got)
	}
	if got := StageTimings(nil).String(); got != "-" {
		t.Errorf("nil String = %q", got)
	}

	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"grow":150,"prune":5,"score":60}`; string(data) != want {
		t.Errorf("MarshalJSON = %s, want %s", data, want)
	}
	var back StageTimings
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back["grow"] != 150*time.Millisecond || back["prune"] != 5*time.Millisecond {
		t.Errorf("round-trip = %v", back)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(0.25); got != "0.25" {
		t.Errorf("formatFloat(0.25) = %q", got)
	}
}
