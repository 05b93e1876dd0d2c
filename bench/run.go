package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 7

// runConfig is one run's parameters.
type runConfig struct {
	spec    spec
	seed    uint64
	window  time.Duration
	trace   bool
	workDir string // data directories live here
}

// metric is a measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured and checked.
type record struct {
	Workload   string            `json:"workload"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems,omitempty"`
	Provenance provenance        `json:"provenance"`
	Inputs     []inputInfo       `json:"inputs"`
	OpsByKind  map[string]int    `json:"ops_by_kind"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Extra      map[string]metric `json:"extra"`
	Layers     []layerSummary    `json:"layers,omitempty"`

	spans []span
}

// provenance says where and how a record was measured.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	Seed       uint64  `json:"seed"`
	Setups     int     `json:"setups"`
	WindowS    float64 `json:"window_s"` // requested window
	MeasuredS  float64 `json:"measured_s"`
	TailPct    int     `json:"tail_pct"` // percentile tail_ms reports
	Trace      bool    `json:"trace"`
	Start      string  `json:"start"`
}

// run sets the workload up setupReps times, measures the window on the
// last set-up, then checks the results. An error means nothing could be
// measured; failed checks are reported in the record.
func run(ctx context.Context, cfg runConfig) (rec *record, err error) {
	started := time.Now()
	r := &runner{s: cfg.spec, seed: cfg.seed}
	if cfg.trace {
		r.tr = newTracer()
	}
	var setups []float64
	for i := range setupReps {
		if r.env != nil {
			err := r.env.stk.close()
			r.env = nil
			if err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if err := r.setUp(ctx, filepath.Join(cfg.workDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if cerr := r.env.stk.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if !r.s.Serve {
		// find_*'s untimed warm-up: one find on the base revision.
		if err := r.prime(ctx); err != nil {
			return nil, err
		}
	}

	cl := r.env.stk.cl
	before, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)
	var ops []op
	var clients []*serveClient
	if r.s.Serve {
		clients = r.newServeClients()
		ops = r.serveLoop(ctx, deadline, clients)
	} else {
		ops = r.detectLoop(ctx, deadline)
	}
	winEnd := time.Now()
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}

	// Untimed from here on.
	ref, detected, problems := r.check(ctx, ops, clients)
	if ref == nil {
		return nil, errors.New(strings.Join(problems, "; "))
	}
	var coarsen time.Duration
	if r.tr != nil {
		// Probes for the per-layer metrics: coarsening of a netlist as
		// find_multilevel configures it, and /metrics scrapes.
		_, end := r.tr.begin(ctx, "netlist.coarsen")
		start := time.Now()
		_, cerr := tanglefind.BuildHierarchy(r.env.ins[0].nl, tanglefind.CoarsenOptions{Levels: 4})
		coarsen = time.Since(start)
		end()
		if cerr != nil {
			return nil, cerr
		}
		for range 5 {
			if _, err := cl.Metrics(ctx); err != nil {
				return nil, err
			}
		}
	}

	rec = &record{
		Workload:  r.s.Name,
		Problems:  problems,
		OpsByKind: make(map[string]int),
		Provenance: provenance{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitRev:     gitRev(),
			Seed:       cfg.seed,
			Setups:     setupReps,
			WindowS:    cfg.window.Seconds(),
			MeasuredS:  winEnd.Sub(winStart).Seconds(),
			TailPct:    r.s.TailPct,
			Trace:      cfg.trace,
			Start:      started.UTC().Format(time.RFC3339),
		},
	}
	for _, in := range r.env.ins {
		rec.Inputs = append(rec.Inputs, in.info)
	}
	for _, o := range ops {
		rec.OpsByKind[o.kind]++
		rec.Attempted++
		if o.err != nil {
			rec.Failed++
		}
	}
	rec.Correct = len(problems) == 0 && rec.Failed == 0

	m := &measurements{
		r: r, ops: ops, setups: setups, window: winEnd.Sub(winStart), peakRSS: peakRSS,
		before: before, after: after, ref: ref, detected: detected, coarsen: coarsen,
	}
	if rec.EndToEnd, err = catalog(endToEndMetrics, m.endToEnd()); err != nil {
		return nil, err
	}
	rec.Extra = m.extra()
	if r.tr == nil {
		// An untraced run reports the service timings as extras.
		timings, err := catalog(serviceTimings, m.timings())
		if err != nil {
			return nil, err
		}
		maps.Copy(rec.Extra, timings)
	} else {
		rec.spans = r.tr.snapshot()
		m.spans, m.winStart, m.winEnd = rec.spans, r.tr.ms(winStart), r.tr.ms(winEnd)
		if rec.PerLayer, err = catalog(perLayerMetrics, m.perLayer()); err != nil {
			return nil, err
		}
		rec.Layers = summarize(rec.spans)
	}
	return rec, nil
}

// setUp generates the netlists, boots the service on dir and uploads the
// base revision of the first, leaving the result in r.env. On serve_eco
// it also runs the priming find, whose recorded incremental state the
// first ECO op reuses.
func (r *runner) setUp(ctx context.Context, dir string) error {
	ctx, end := r.tr.begin(ctx, "bench.setup")
	defer end()
	e := &env{}
	pins := 0
	for j := range r.s.Netlists {
		in, err := makeInput(ctx, r.s, r.seed*1000+uint64(j), r.tr)
		if err != nil {
			return err
		}
		e.ins = append(e.ins, in)
		pins = max(pins, in.info.Pins)
	}
	// The registry's pin budget bounds memory: find_* keep the newest two
	// revisions resident, serve_eco about sixteen netlists, so evicted
	// digests that are touched again reload from their blobs.
	//
	// A finished job's record keeps its engine, and with it the netlist,
	// reachable until the record retires, so retaining the default 1024
	// records would make memory grow with the number of ops a window
	// completes. find_*'s one client fetches each result before it
	// submits again, so four records suffice. serve_eco keeps 128: after
	// one client's terminal event, the other client's cached resubmits
	// must not retire the record before the result is fetched.
	budget, records := int64(pins)*5/2, 4
	if r.s.Serve {
		budget, records = int64(pins)*16, 128
	}
	var err error
	if e.stk, err = startStack(ctx, dir, budget, records, r.tr); err != nil {
		return err
	}
	info, err := e.stk.cl.UploadNetlist(ctx, e.ins[0].tfb)
	if err != nil {
		return errors.Join(fmt.Errorf("upload base: %w", err), e.stk.close())
	}
	e.base = info.Digest
	r.env = e
	if r.s.Serve {
		if err := r.prime(ctx); err != nil {
			r.env = nil
			return errors.Join(err, e.stk.close())
		}
	}
	return nil
}

// prime runs the priming find on the base revision.
func (r *runner) prime(ctx context.Context) error {
	jr, err := r.runJob(ctx, jobRequest(api.KindFind, r.env.base, r.primeOptions()))
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	r.tr.jobSpans(ctx, jr)
	r.env.prime = jr.status
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM missing from /proc/self/status")
}
