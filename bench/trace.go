package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tanglefind/internal/store"
)

// span is one timed call at a layer boundary. Its layer is the name's
// prefix before the first dot.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run started
	End    float64 `json:"end_ms"`
	Parent int     `json:"parent,omitempty"` // id of the causing span (ids count from 1)
	Op     int     `json:"op,omitempty"`     // op id; 0 for set-up and unattributed work
	Bytes  int64   `json:"bytes,omitempty"`  // payload or response size, where there is one
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory. A nil tracer (an
// untraced run) records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// ms converts a time to the trace's clock. Times decoded from the API
// carry no monotonic reading; Sub then falls back to the wall clock,
// which the server and the benchmark share because they are one process.
func (t *tracer) ms(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Millisecond)
}

type spanKey struct{}

// spanCtx is what a context carries: the op it belongs to and the span
// that new spans nest under.
type spanCtx struct{ op, parent int }

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// withOp starts op id's span tree.
func withOp(ctx context.Context, op int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{op: op})
}

// begin opens a span under ctx's span and returns a context for its
// children and the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	sc := spanFrom(ctx)
	start := t.ms(time.Now())
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: sc.parent, Op: sc.op})
	id := len(t.spans)
	t.mu.Unlock()
	return under(ctx, id), func() {
		end := t.ms(time.Now())
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// record adds a finished span under ctx's span and returns its id.
func (t *tracer) record(ctx context.Context, name string, start, end time.Time, bytes int64) int {
	if t == nil {
		return 0
	}
	sc := spanFrom(ctx)
	s := span{Name: name, Start: t.ms(start), End: t.ms(end), Parent: sc.parent, Op: sc.op, Bytes: bytes}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans)
}

// under returns ctx with span id as the parent of new spans.
func under(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{op: spanFrom(ctx).op, parent: id})
}

// jobSpans reconstructs a finished job's server-side spans from its
// status timestamps and stage breakdown: the queue wait, the worker's
// run, and inside the run the engine call, which ends where the merge
// stage begins. They nest under the event stream the client waited on,
// so the stream's self time is what serving the events cost.
func (t *tracer) jobSpans(ctx context.Context, jr *jobRun) {
	st := jr.status
	if t == nil || st.Cached || st.StartedAt == nil || st.FinishedAt == nil || st.Result == nil {
		return
	}
	if jr.span > 0 {
		ctx = under(ctx, jr.span)
	}
	stages := st.Result.Stages
	t.record(ctx, "jobs.queue_wait", st.CreatedAt, *st.StartedAt, 0)
	run := t.record(ctx, "jobs.run", *st.StartedAt, *st.FinishedAt, 0)
	engineEnd := st.FinishedAt.Add(-stages["merge"])
	t.record(under(ctx, run), "core.engine", engineEnd.Add(-stages["engine"]), engineEnd, 0)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerSummary is one layer's row in a traced run's report.
type layerSummary struct {
	Layer  string  `json:"layer"`
	Count  int     `json:"count"`
	BusyMS float64 `json:"busy_ms"` // summed span durations
	P50MS  float64 `json:"p50_ms"`
	SelfMS float64 `json:"self_ms"` // busy minus the part child spans cover
}

// summarize folds spans into per-layer rows, in layer order.
func summarize(spans []span) []layerSummary {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := make(map[string][]float64)
	rows := make(map[string]*layerSummary)
	for i, s := range spans {
		l := s.layer()
		r := rows[l]
		if r == nil {
			r = &layerSummary{Layer: l}
			rows[l] = r
		}
		r.Count++
		r.BusyMS += s.dur()
		r.SelfMS += s.dur() - covered(s, children[i+1])
		durs[l] = append(durs[l], s.dur())
	}
	out := make([]layerSummary, 0, len(rows))
	for l, r := range rows {
		r.P50MS = median(durs[l])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, reach := 0.0, parent.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		total += v.b - max(v.a, reach)
		reach = v.b
	}
	return total
}

// writeTrace saves the layer summary and the spans as JSON.
func writeTrace(path string, layers []layerSummary, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Layers []layerSummary `json:"layers"`
		Spans  []span         `json:"spans"`
	}{layers, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sinkKey marks a request context holding an *int that receives the id
// of the request's span once it is recorded.
type sinkKey struct{}

// tracingTransport records one span per HTTP exchange, from sending the
// request until the response body is closed, with the body's size.
// GET /metrics is the telemetry layer; every other route is the server.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	done := func(n int64) {
		id := t.tr.record(req.Context(), routeSpan(req), start, time.Now(), n)
		if sink, ok := req.Context().Value(sinkKey{}).(*int); ok {
			*sink = id
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		done(0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// routeSpan names an API request's span after its route.
func routeSpan(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/metrics":
		return "telemetry.scrape"
	case p == "/v1/stats":
		return "server.stats"
	case p == "/v1/netlists":
		return "server.upload"
	case strings.HasSuffix(p, "/deltas"):
		return "server.delta"
	case p == "/v1/jobs":
		return "server.submit"
	case strings.HasSuffix(p, "/events"):
		return "server.events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "server.job"
	}
	return "server.other"
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// timedBackend wraps the durable store backend and records a span per
// blob and journal call. The Backend interface carries no context, so
// these spans belong to no op; they are matched to the window by time.
type timedBackend struct {
	store.Backend
	tr *tracer
}

func (b *timedBackend) PutBlob(digest string, data []byte) error {
	start := time.Now()
	err := b.Backend.PutBlob(digest, data)
	b.tr.record(context.Background(), "store.put_blob", start, time.Now(), int64(len(data)))
	return err
}

func (b *timedBackend) GetBlob(digest string) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.GetBlob(digest)
	b.tr.record(context.Background(), "store.get_blob", start, time.Now(), int64(len(data)))
	return data, err
}

func (b *timedBackend) Append(rec store.Record) error {
	start := time.Now()
	err := b.Backend.Append(rec)
	b.tr.record(context.Background(), "store.append", start, time.Now(), 0)
	return err
}
