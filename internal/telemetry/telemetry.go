// Package telemetry is the project's dependency-free observability
// core: counters, gauges and fixed-bucket histograms with pre-declared
// label sets, a Prometheus text-format exposition writer, and
// StageTimings (stages.go), the per-stage wall-time map the engine and
// the job manager report their breakdowns in.
//
// The design is deliberately small. Metrics are registered once, up
// front, on a Registry (duplicate or malformed registrations panic —
// they are programmer errors). Counters and gauges hold no count of
// their own: every one is Set at scrape time, through an OnScrape
// hook, from the value the owning subsystem already keeps (the job
// manager's cumulative counts, the store's occupancy), so /metrics and
// /v1/stats can never disagree. Histograms are observed as events
// finish.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default histogram bucketing: exponential from 1ms
// to 60s, sized for request and engine latencies.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds a process's metric families and writes them in
// Prometheus text exposition format. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric family: a name, help text, kind, a declared
// label set and the children keyed by their joined label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram families only; sorted ascending

	mu       sync.Mutex
	children map[string]*child
}

// child is one labeled series. value carries the counter/gauge float64
// as bits; histograms use counts/sum/count instead.
type child struct {
	labelValues []string
	value       atomic.Uint64 // float64 bits
	counts      []atomic.Uint64
	sum         atomic.Uint64 // float64 bits
	count       atomic.Uint64
}

func addFloat(v *atomic.Uint64, delta float64) {
	for {
		old := v.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if v.CompareAndSwap(old, next) {
			return
		}
	}
}

// OnScrape registers fn to run at the start of every WritePrometheus
// call, before values are read — the hook for mirroring state some
// other subsystem owns (cumulative stats counters, cache occupancy)
// into registered metrics so the exposition is always current.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels ...string) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l))
		}
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		buckets = bs
	} else {
		buckets = nil
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   labels,
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

func (f *family) with(values ...string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), values...)}
		if f.kind == kindHistogram {
			c.counts = make([]atomic.Uint64, len(f.buckets))
		}
		f.children[key] = c
	}
	return c
}

// ---- Counter ----

// Counter is a monotonically increasing total, mirrored at scrape time
// from the count its subsystem keeps (see OnScrape).
type Counter struct{ c *child }

// Counter registers an unlabeled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.register(name, help, kindCounter, nil).with()}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labels...)}
}

// With resolves (creating on first use) the child for the label values.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.with(values...)} }

// Set stores the mirrored total.
func (c *Counter) Set(v float64) { c.c.value.Store(math.Float64bits(v)) }

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ c *child }

// Gauge registers an unlabeled gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.register(name, help, kindGauge, nil).with()}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labels...)}
}

// With resolves (creating on first use) the child for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.with(values...)} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.c.value.Store(math.Float64bits(v)) }

// ---- Histogram ----

// Histogram is one series of a HistogramVec: it accumulates
// observations into the family's fixed buckets (cumulative on export,
// Prometheus-style).
type Histogram struct {
	c       *child
	buckets []float64
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family; nil buckets mean
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, buckets, labels...)}
}

// With resolves (creating on first use) the child for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{c: v.f.with(values...), buckets: v.f.buckets}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are sorted; the first upper bound >= v is the sample's
	// (non-cumulative) bucket. Exposition accumulates.
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.counts()) {
		h.counts()[i].Add(1)
	}
	addFloat(&h.c.sum, v)
	h.c.count.Add(1)
}

func (h *Histogram) counts() []atomic.Uint64 { return h.c.counts }

// ---- Exposition ----

// WritePrometheus runs the scrape hooks, then writes every family in
// Prometheus text exposition format (families sorted by name, children
// by label values) to w.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.children[k])
	}
	f.mu.Unlock()
	for _, c := range kids {
		switch f.kind {
		case kindHistogram:
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += c.counts[i].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				f.writeLabels(b, c.labelValues, formatFloat(ub))
				fmt.Fprintf(b, " %d\n", cum)
			}
			// Out-of-range samples still count toward +Inf via count.
			b.WriteString(f.name)
			b.WriteString("_bucket")
			f.writeLabels(b, c.labelValues, "+Inf")
			fmt.Fprintf(b, " %d\n", c.count.Load())
			b.WriteString(f.name)
			b.WriteString("_sum")
			f.writeLabels(b, c.labelValues, "")
			fmt.Fprintf(b, " %s\n", formatFloat(math.Float64frombits(c.sum.Load())))
			b.WriteString(f.name)
			b.WriteString("_count")
			f.writeLabels(b, c.labelValues, "")
			fmt.Fprintf(b, " %d\n", c.count.Load())
		default:
			b.WriteString(f.name)
			f.writeLabels(b, c.labelValues, "")
			fmt.Fprintf(b, " %s\n", formatFloat(math.Float64frombits(c.value.Load())))
		}
	}
}

// writeLabels renders {l1="v1",...}; le, when non-empty, is appended
// as a histogram bucket's upper bound.
func (f *family) writeLabels(b *strings.Builder, values []string, le string) {
	if len(values) == 0 && le == "" {
		return
	}
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(values) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}
