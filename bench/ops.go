package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// Op kinds. A detect op uploads a new revision of the workload's
// netlist and runs a find job on it; the others make up serve_eco's mix.
const (
	kindDetect   = "detect"
	kindIngest   = "ingest"
	kindFind     = "find"
	kindResubmit = "resubmit"
	kindECO      = "eco"
	kindLint     = "lint"
)

// serveDeck is serve_eco's op mix: 10% ingest, 15% find, 25% resubmit,
// 35% ECO, 15% lint. Each client deals its ops from a shuffled deck of
// these twenty, so every run realizes the mix exactly; drawing each op
// independently would let the share of slow ops, and with it the
// throughput, wander from run to run.
var serveDeck = []struct {
	kind string
	n    int
}{
	{kindIngest, 2}, {kindFind, 3}, {kindResubmit, 5}, {kindECO, 7}, {kindLint, 3},
}

// op is one client operation in the measured window.
type op struct {
	id      int
	kind    string
	netlist int           // which of the run's netlists a detect op used
	latency time.Duration // request to result, as the client waits
	upload  time.Duration // the upload's round trip, for ops that upload
	job     *jobRun
	err     error
}

// jobRun is one job as the client saw it.
type jobRun struct {
	status    api.JobStatus // terminal status with the result
	roundTrip time.Duration // submit until the terminal event arrived
	events    int           // events streamed
	span      int           // the event stream's span, in traced runs
}

// env is one set-up: the generated netlists and the service holding the
// base revision of the first, primed by one find.
type env struct {
	ins   []*input
	stk   *stack
	base  string // digest of revision 0 of ins[0]
	prime api.JobStatus
}

// runner drives one workload run.
type runner struct {
	s    spec
	seed uint64
	tr   *tracer
	env  *env

	nextOp   atomic.Int64
	nextRev  atomic.Int64
	nextRand atomic.Uint64

	mu    sync.Mutex
	finds []api.JobRequest // serve_eco's uncached find requests, for resubmits
}

func jobRequest(kind api.Kind, digest string, opt tanglefind.Options) api.JobRequest {
	raw, err := json.Marshal(opt)
	if err != nil {
		panic(err) // Options is a plain tagged struct
	}
	return api.JobRequest{Kind: kind, Digest: digest, Options: raw}
}

// primeOptions are the options of the set-up find. serve_eco records
// incremental state so the first ECO op can reuse it.
func (r *runner) primeOptions() tanglefind.Options {
	opt := r.s.options(r.seed)
	opt.RecordIncremental = r.s.Serve
	return opt
}

// runJob submits a job and follows its event stream until the terminal
// event, then fetches the result. A submission answered from the cache
// is already terminal and needs neither.
func (r *runner) runJob(ctx context.Context, req api.JobRequest) (*jobRun, error) {
	cl := r.env.stk.cl
	start := time.Now()
	st, err := cl.Submit(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("submit %s job: %w", req.Kind, err)
	}
	jr := &jobRun{}
	if id := st.ID; !st.State.Terminal() {
		err = cl.StreamEvents(context.WithValue(ctx, sinkKey{}, &jr.span), id, func(api.Event) bool {
			jr.events++
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		jr.roundTrip = time.Since(start)
		if st, err = cl.Job(ctx, id); err != nil {
			return nil, fmt.Errorf("fetch %s: %w", id, err)
		}
	} else {
		jr.roundTrip = time.Since(start)
	}
	jr.status = st
	if st.State != api.StateDone || st.Result == nil {
		return jr, fmt.Errorf("%s job %s ended %s: %s", req.Kind, st.ID, st.State, st.Error)
	}
	return jr, nil
}

// detectOp uploads revision rev of netlist rev mod Netlists and detects
// it.
func (r *runner) detectOp(ctx context.Context, rev int) op {
	start := time.Now()
	o := op{id: int(r.nextOp.Add(1)), kind: kindDetect, netlist: rev % len(r.env.ins)}
	ctx, end := r.tr.begin(withOp(ctx, o.id), "op."+o.kind)
	defer end()
	info, err := r.env.stk.cl.UploadNetlist(ctx, r.env.ins[o.netlist].revision(rev))
	o.upload = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("upload revision %d: %w", rev, err)
		return o
	}
	o.job, o.err = r.runJob(ctx, jobRequest(api.KindFind, info.Digest, r.s.options(r.seed)))
	if o.job != nil {
		r.tr.jobSpans(ctx, o.job)
	}
	o.latency = time.Since(start)
	return o
}

// detectLoop is the find_* window: one client, detect ops back to
// back on new revisions until the deadline.
func (r *runner) detectLoop(ctx context.Context, deadline time.Time) []op {
	var ops []op
	for ctx.Err() == nil {
		ops = append(ops, r.detectOp(ctx, int(r.nextRev.Add(1))))
		if !time.Now().Before(deadline) {
			break
		}
	}
	return ops
}

// serveClient is one serve_eco client: it edits its own chain of ECO
// revisions, starting from the base netlist.
type serveClient struct {
	rng    *rand.Rand
	deck   []string       // op kinds still to deal
	head   string         // digest the client's next edit applies to
	result *api.JobResult // detection result of head
	edited map[tanglefind.NetID]bool
}

// deal returns the client's next op kind.
func (c *serveClient) deal() string {
	if len(c.deck) == 0 {
		for _, k := range serveDeck {
			for range k.n {
				c.deck = append(c.deck, k.kind)
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	kind := c.deck[0]
	c.deck = c.deck[1:]
	return kind
}

// serveLoop is serve_eco's window: two clients, closed loop, no think
// time.
func (r *runner) serveLoop(ctx context.Context, deadline time.Time, clients []*serveClient) []op {
	var wg sync.WaitGroup
	perClient := make([][]op, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				perClient[i] = append(perClient[i], r.serveOp(ctx, c))
				if !time.Now().Before(deadline) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return slices.Concat(perClient...)
}

func (r *runner) newServeClients() []*serveClient {
	clients := make([]*serveClient, 2)
	for i := range clients {
		clients[i] = &serveClient{
			rng:    rand.New(rand.NewPCG(r.seed, uint64(i)+1)),
			head:   r.env.base,
			result: r.env.prime.Result,
			edited: make(map[tanglefind.NetID]bool),
		}
	}
	return clients
}

// serveOp runs the client's next op.
func (r *runner) serveOp(ctx context.Context, c *serveClient) op {
	kind := c.deal()
	var resubmit api.JobRequest
	if kind == kindResubmit {
		r.mu.Lock()
		if len(r.finds) == 0 {
			kind = kindFind // nothing to resubmit yet
		} else {
			resubmit = r.finds[c.rng.IntN(len(r.finds))]
		}
		r.mu.Unlock()
	}

	start := time.Now()
	o := op{id: int(r.nextOp.Add(1)), kind: kind}
	ctx, end := r.tr.begin(withOp(ctx, o.id), "op."+kind)
	defer end()
	cl, in := r.env.stk.cl, r.env.ins[0]
	switch kind {
	case kindIngest:
		var info api.NetlistInfo
		info, o.err = cl.UploadNetlist(ctx, in.revision(int(r.nextRev.Add(1))))
		o.upload = time.Since(start)
		if o.err == nil && info.Cells != in.info.Cells {
			o.err = fmt.Errorf("ingest registered %d cells, want %d", info.Cells, in.info.Cells)
		}
	case kindFind:
		opt := r.s.options(r.seed)
		opt.RandSeed = 1_000_000 + r.nextRand.Add(1)
		req := jobRequest(api.KindFind, c.head, opt)
		// Published before it completes, so the other client's
		// resubmits can coalesce onto it as well as hit the cache.
		r.mu.Lock()
		r.finds = append(r.finds, req)
		r.mu.Unlock()
		o.job, o.err = r.runJob(ctx, req)
	case kindResubmit:
		o.job, o.err = r.runJob(ctx, resubmit)
	case kindECO:
		var res api.DeltaResult
		res, o.err = cl.ApplyDelta(ctx, c.head, r.ecoDelta(c))
		if o.err != nil {
			break
		}
		o.job, o.err = r.runJob(ctx, jobRequest(api.KindFindIncremental, res.Netlist.Digest, r.primeOptions()))
		if o.err == nil {
			c.head, c.result = res.Netlist.Digest, o.job.status.Result
		}
	case kindLint:
		o.job, o.err = r.runJob(ctx, api.JobRequest{Kind: api.KindLint, Digest: c.head})
	}
	// A resubmit's job is a cache hit or rides another op's run, whose
	// spans that op already records.
	if o.job != nil && kind != kindResubmit {
		r.tr.jobSpans(ctx, o.job)
	}
	o.latency = time.Since(start)
	return o
}

// ecoDelta builds a local, pin-preserving rewire for the client's head:
// one small background net the client has not edited yet gives up its
// last pin to a background cell two hops away. Nets the client never
// edited still have their base pins, so the edit is valid on its head.
func (r *runner) ecoDelta(c *serveClient) *tanglefind.Delta {
	nl := r.env.ins[0].nl
	for {
		e := tanglefind.NetID(c.rng.IntN(nl.NumNets()))
		pins := nl.NetPins(e)
		if c.edited[e] || len(pins) < 3 || len(pins) >= 16 || slices.ContainsFunc(pins, r.isPlanted) {
			continue
		}
		repl, ok := r.nearbyCell(c.rng, pins)
		if !ok {
			continue
		}
		c.edited[e] = true
		cells := append(slices.Clone(pins[:len(pins)-1]), repl)
		return &tanglefind.Delta{SetNets: []tanglefind.NetEdit{{Net: e, Cells: cells}}}
	}
}

func (r *runner) isPlanted(c tanglefind.CellID) bool { return r.env.ins[0].planted[c] }

// nearbyCell finds a background cell sharing a net with one of pins
// (other than the last, which the edit moves) but not on their net.
func (r *runner) nearbyCell(rng *rand.Rand, pins []tanglefind.CellID) (tanglefind.CellID, bool) {
	nl := r.env.ins[0].nl
	for range 8 {
		p := pins[rng.IntN(len(pins)-1)]
		nets := nl.CellPins(p)
		q := nl.NetPins(nets[rng.IntN(len(nets))])
		c := q[rng.IntN(len(q))]
		if !r.isPlanted(c) && !slices.Contains(pins, c) {
			return c, true
		}
	}
	return 0, false
}
