package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
	"weak"

	"tanglefind/internal/ds"
	"tanglefind/internal/group"
	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
	"tanglefind/internal/telemetry"
)

// Progress is a snapshot of a running engine, delivered to the
// Options.Progress callback after every completed seed. SeedsTotal is
// the number of unique seeds actually executed, which can be smaller
// than Options.Seeds when stratified seeding collapses strata onto the
// same cell (tiny netlists with large seed counts). Progress is a
// plain value with JSON tags so serving layers can stream snapshots
// over the wire verbatim.
type Progress struct {
	SeedsDone  int `json:"seeds_done"`
	SeedsTotal int `json:"seeds_total"`
	Candidates int `json:"candidates"` // refined candidates found so far
	// Level is the hierarchy level the seeds are growing on: 0 for
	// flat runs, the coarsest level's index during a multilevel run's
	// detection pass.
	Level int `json:"level,omitempty"`
}

// ProgressFunc receives Progress snapshots. Calls are serialized by the
// engine but may come from different worker goroutines; the callback
// must not block for long or it will stall the worker pool.
type ProgressFunc func(Progress)

// Finder is a long-lived tangled-logic engine over one netlist.
// Construct it once with NewFinder and run it many times: cached
// multilevel hierarchies are built once per engine, and per-worker
// growth and evaluation state (frontier arrays, trackers, ordering and
// curve buffers) is drawn from one process-wide pool shared by every
// engine, so repeated runs allocate far less than repeated one-shot
// Find calls.
//
// The pool holds at most GOMAXPROCS idle worker states, whatever the
// number of engines alive; a state handed to an engine over a
// different netlist is resized to that netlist and reset. An engine
// therefore retains no scratch of its own between runs, and
// MemoryEstimate reports only what it caches (PooledScratchBytes
// reports the pool).
//
// Both entry points, Find and FindIncremental, first pick the level a
// run's seeds execute on (pickLevel): the engine's own netlist, or
// under Options.Levels > 1 the coarsest level of a cached hierarchy,
// whose winners are projected back down.
//
// Finder is safe for concurrent use. Results are deterministic for a
// fixed Options.RandSeed regardless of scheduling, worker count or
// which pooled state a worker draws.
type Finder struct {
	nl *netlist.Netlist
	aG float64

	mlMu    sync.Mutex
	ml      map[mlKey]*mlEntry // cached hierarchies + per-level sub-engines
	mlOrder []mlKey            // insertion order, for bounded eviction
}

// workerState is the reusable per-worker scratch: one Phase I grower
// and one set evaluator. Not safe for concurrent use; each worker
// borrows one from the process-wide pool for the duration of a run.
type workerState struct {
	gr *grower
	ev *group.Evaluator
	// last is the netlist the state's arrays were last sized and reset
	// for, held weakly so an idle state never keeps a netlist
	// reachable: a state drawn again for the same netlist skips the
	// O(cells + nets) rebind (see bind).
	last weak.Pointer[netlist.Netlist]
}

// memoryFootprint estimates the state's retained bytes from the actual
// capacities of its buffers. Entry sizes come from unsafe.Sizeof so the
// accounting tracks layout changes instead of hardcoding them.
func (ws *workerState) memoryFootprint() int64 {
	g := ws.gr
	b := int64(cap(g.front)) * int64(unsafe.Sizeof(frontEntry{}))
	b += int64(cap(g.pend)) * 4
	b += int64(cap(g.touched))*4 + int64(cap(g.examined))*4
	b += int64(cap(g.combo.buf))*4 + int64(cap(g.combo.best))*4
	for _, s := range g.combo.sorted {
		b += int64(cap(s)) * 4
	}
	b += g.heap.MemoryFootprint()
	b += g.tracker.MemoryFootprint()
	b += int64(cap(g.ord.Members))*4 + int64(cap(g.ord.Cuts))*4
	b += int64(cap(g.curve.Scores)) * 8
	b += ws.ev.MemoryFootprint()
	return b
}

// bind readies the state for a run over nl. A state last bound to nl
// only gets its netlist references back: every growth resets the
// tracker state it starts from and frontier entries are epoch-stamped,
// so its arrays still describe nl. Any other state is rebound: every
// per-cell and per-net array is resized to nl, reusing its storage
// when large enough, so per-growth resets stay O(nl) however large a
// netlist the state served before.
func (ws *workerState) bind(nl *netlist.Netlist) {
	if ws.last.Value() == nl {
		ws.gr.attach(nl)
		ws.ev.Attach(nl)
		return
	}
	ws.gr.rebind(nl)
	ws.ev.Rebind(nl)
	ws.last = weak.Make(nl)
}

// idle is the process-wide free list of worker states, the pool every
// engine's acquire and release go through. It holds at most GOMAXPROCS
// states — one per core that can run a worker — so idle engine scratch
// is bounded by the machine rather than by the number of engines a
// serving process keeps alive.
var idle struct {
	mu   sync.Mutex
	free []*workerState
}

// takeIdle pops a pooled state, preferring one last bound to nl so a
// repeated run skips the rebind; nil when the pool is empty.
func takeIdle(nl *netlist.Netlist) *workerState {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	n := len(idle.free)
	if n == 0 {
		return nil
	}
	k := n - 1
	for i, ws := range idle.free {
		if ws.last.Value() == nl {
			k = i
			break
		}
	}
	ws := idle.free[k]
	idle.free[k] = idle.free[n-1]
	idle.free[n-1] = nil // release the reference, not just the slot
	idle.free = idle.free[:n-1]
	return ws
}

// PooledScratchBytes reports the retained bytes of the idle worker
// states in the process-wide pool. States borrowed by in-flight runs
// are not counted.
func PooledScratchBytes() int64 {
	idle.mu.Lock()
	defer idle.mu.Unlock()
	var b int64
	for _, ws := range idle.free {
		b += ws.memoryFootprint()
	}
	return b
}

// NewFinder constructs an engine over nl. The netlist must be non-empty
// and must not be mutated while the engine is in use.
func NewFinder(nl *netlist.Netlist) (*Finder, error) {
	if nl == nil || nl.NumCells() == 0 {
		return nil, fmt.Errorf("core: empty netlist")
	}
	return &Finder{nl: nl, aG: nl.AvgPins()}, nil
}

// Netlist returns the netlist the engine operates on.
func (f *Finder) Netlist() *netlist.Netlist { return f.nl }

// MemoryEstimate reports the memory the engine caches in bytes: its
// finished multilevel hierarchies, coarse netlists and projection maps.
// The netlist itself and worker scratch — idle in the shared pool
// (PooledScratchBytes) or borrowed by in-flight runs — are not counted.
func (f *Finder) MemoryEstimate() int64 {
	var b int64
	for _, s := range f.mlStates() {
		b += s.hier.MemoryFootprint()
		for _, sub := range s.finders[1:] {
			b += sub.MemoryEstimate()
		}
	}
	return b
}

// CachedPins reports the pins of the coarse levels (1 and up) of the
// engine's finished multilevel hierarchies: what the engine keeps
// resident beyond its own netlist, in the unit of a registry's pin
// budget. A hierarchy still building is not counted and never waited
// on, so a caller may hold its own locks across the call.
func (f *Finder) CachedPins() int64 {
	var pins int64
	for _, s := range f.mlStates() {
		for l := 1; l < s.hier.NumLevels(); l++ {
			pins += int64(s.hier.Level(l).NumPins())
		}
	}
	return pins
}

// mlStates snapshots the finished hierarchy states. Entries still
// building (or failed) are skipped: the cache mutex only guards the
// map, never a build, so this never blocks behind a coarsening pass.
func (f *Finder) mlStates() []*mlState {
	f.mlMu.Lock()
	states := make([]*mlState, 0, len(f.ml))
	for _, e := range f.ml {
		if e.s != nil {
			states = append(states, e.s)
		}
	}
	f.mlMu.Unlock()
	return states
}

// acquire draws a worker state from the shared pool (allocating one
// when it is empty) and binds it to this engine's netlist and the
// run's options.
func (f *Finder) acquire(opt *Options) *workerState {
	ws := takeIdle(f.nl)
	if ws == nil {
		ws = &workerState{gr: newGrower(f.nl), ev: group.NewEvaluator(f.nl), last: weak.Make(f.nl)}
	}
	ws.bind(f.nl)
	ws.gr.opt = opt
	ws.gr.phases = phaseAcc{}
	return ws
}

// release returns a worker state to the shared pool, first dropping
// every reference into this engine — options, netlist — so an idle
// state keeps no engine reachable. A full pool drops the state
// instead.
func (f *Finder) release(ws *workerState) {
	ws.gr.opt = nil
	ws.gr.attach(nil)
	ws.ev.Attach(nil)
	idle.mu.Lock()
	if len(idle.free) < runtime.GOMAXPROCS(0) {
		idle.free = append(idle.free, ws)
	}
	idle.mu.Unlock()
}

// seedPlan is the deterministic seed schedule of one run: the seed cell
// for every index in [0, Options.Seeds), plus the first-occurrence
// index of each seed cell. Duplicate seeds (multiple strata collapsing
// onto one cell) are executed once, at their first index; later
// occurrences reuse that outcome.
type seedPlan struct {
	ids   []netlist.CellID
	owner []int // owner[i] = first index with the same seed cell (== i if unique)
}

// plan derives the full schedule from (RandSeed, Seeds, |V|). Seeds are
// stratified — one uniform draw per equal-width slice of the cell-id
// space — instead of the paper's i.i.d. draws: each seed is still
// uniform within its stratum, but no region of the netlist can be
// starved by an unlucky sequence, which matters for deterministic
// reproduction (i.i.d. leaves a structure covering fraction f a
// (1-f)^m chance of receiving no seed at all).
// The schedule depends only on (RandSeed, Seeds, |V|) — FindIncremental
// relies on that determinism, guarding reuse with a per-index seed-cell
// comparison against the recorded run.
func (f *Finder) plan(opt *Options) seedPlan {
	master := ds.NewRNG(opt.RandSeed)
	ids := make([]netlist.CellID, opt.Seeds)
	n := f.nl.NumCells()
	stride := float64(n) / float64(opt.Seeds)
	for i := range ids {
		lo := int(float64(i) * stride)
		hi := int(float64(i+1) * stride)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > n {
			hi = n
		}
		if lo >= hi {
			lo = hi - 1
		}
		ids[i] = netlist.CellID(lo + master.Intn(hi-lo))
	}
	owner := make([]int, opt.Seeds)
	first := make(map[netlist.CellID]int, opt.Seeds)
	for i, id := range ids {
		if j, ok := first[id]; ok {
			owner[i] = j
		} else {
			first[id] = i
			owner[i] = i
		}
	}
	return seedPlan{ids: ids, owner: owner}
}

// seedRun is what one run's seed loop produced on its level.
type seedRun struct {
	outs   []seedOut     // executed owner seeds, ascending by idx
	recs   []*seedRecord // positional with outs; only in recorded runs
	sched  SchedStats    // how the schedule was executed
	stages telemetry.StageTimings
}

// runSeeds is the one seed loop: it executes every owner seed of a
// precomputed plan on the worker pool. With record set it captures
// each seed's incremental state alongside its outcome. Given a replay
// source, a seed whose recorded footprint misses the dirty region
// replays its record, and every other seed grows; only such runs read
// the clock for the replay/reseed split.
//
// On cancellation the returned error wraps ctx.Err() and the seedRun
// holds the seeds that completed, from which run assembles a partial
// Result.
func (f *Finder) runSeeds(ctx context.Context, opt *Options, plan seedPlan, record bool, src *replaySrc) (*seedRun, error) {
	// Only first occurrences run; duplicates inherit the owner's result.
	var run []int
	for i, o := range plan.owner {
		if o == i {
			run = append(run, i)
		}
	}

	outs := make([]seedOut, len(run))
	var recs []*seedRecord
	if record {
		recs = make([]*seedRecord, len(run))
	}
	// A seed whose replay diverges falls through to the live pipeline
	// and counts wholly as reseed. A re-scored replay's phases, like a
	// live seed's, also land in the worker's phase clocks.
	var replayNS, reseedNS atomic.Int64
	completed, sched, phases := f.runSeedPool(ctx, opt, len(run), func(ws *workerState, k int) bool {
		i := run[k]
		p := seedPipe{gr: ws.gr, ev: ws.ev, opt: opt, aG: f.aG}
		var t time.Time
		if src != nil {
			t = clock()
			if rec := src.st.seeds[i]; rec != nil && rec.seed == plan.ids[i] && !rec.foot.IntersectsWith(src.region) {
				if o, r, ok := p.replay(rec, seedRNG(opt.RandSeed, i)); ok {
					o.idx, o.replayed = i, true
					outs[k] = o
					if record {
						recs[k] = r
					}
					replayNS.Add(int64(clock().Sub(t)))
					return o.cand != nil
				}
			}
		}
		if record {
			p.rec = &seedRecord{seed: plan.ids[i], foot: ds.NewBitset(f.nl.NumCells()), aG: f.aG}
		}
		// Per-seed RNG derived from (RandSeed, i): identical streams
		// no matter which worker runs the job.
		o, _ := p.runSeed(seedRNG(opt.RandSeed, i), plan.ids[i])
		o.idx = i
		outs[k] = o
		if record {
			p.rec.out = o
			recs[k] = p.rec
		}
		if src != nil {
			reseedNS.Add(int64(clock().Sub(t)))
		}
		return o.cand != nil
	})

	sr := &seedRun{sched: sched, stages: phases.stages()}
	if v := replayNS.Load(); v > 0 {
		sr.stages.Add(StageReplay, time.Duration(v))
	}
	if v := reseedNS.Load(); v > 0 {
		sr.stages.Add(StageReseed, time.Duration(v))
	}
	if err := ctx.Err(); err != nil {
		for k := range outs {
			if completed[k] {
				sr.outs = append(sr.outs, outs[k])
				if record {
					sr.recs = append(sr.recs, recs[k])
				}
			}
		}
		// Cancellation that lands after the last seed already finished
		// did not cost any work: the run is complete, report success.
		if len(sr.outs) == len(run) {
			return sr, nil
		}
		return sr, fmt.Errorf("core: run cancelled after %d/%d seeds: %w", len(sr.outs), len(run), err)
	}
	sr.outs = outs
	sr.recs = recs
	return sr, nil
}

// seedRNG derives seed index i's deterministic RNG stream from the
// run's master seed: identical no matter which worker runs the job,
// and reproducible by incremental replay.
func seedRNG(randSeed uint64, i int) *ds.RNG {
	return ds.NewRNG(randSeed ^ (0x9e37_79b9_7f4a_7c15 * uint64(i+1)))
}

// SchedStats describes how one run's seed schedule was executed:
// resolved worker count and each worker's seed count and busy time.
// It is JSON-tagged so bench artifacts and job results can publish it
// verbatim.
type SchedStats struct {
	// Workers is the resolved worker count (Options.Workers after the
	// <=0 → GOMAXPROCS default and the can't-exceed-items clamp).
	Workers int `json:"workers"`
	// Steals is always 0: workers claim seeds from one shared counter,
	// so no seed moves between workers. It remains because the
	// benchmark's core.steals metric still reads it.
	Steals int64 `json:"steals"`
	// WorkerSeeds[w] is how many seeds worker w executed; the spread is
	// the utilization picture (max/mean ≈ 1 means the pool stayed
	// saturated).
	WorkerSeeds []int64 `json:"worker_seeds,omitempty"`
	// WorkerBusyNS[w] is the wall time (ns) worker w spent executing
	// seeds. The gap between max(busy) and the run's elapsed time is
	// the scheduling overhead picture.
	WorkerBusyNS []int64 `json:"worker_busy_ns,omitempty"`
}

// merge folds another schedule's stats into s (a multilevel run
// schedules its coarse detection and then one refinement sweep per
// finer level).
func (s *SchedStats) merge(o SchedStats) {
	s.Workers = max(s.Workers, o.Workers)
	s.WorkerSeeds = addPerWorker(s.WorkerSeeds, o.WorkerSeeds)
	s.WorkerBusyNS = addPerWorker(s.WorkerBusyNS, o.WorkerBusyNS)
}

// addPerWorker adds b into a element-wise, growing a to b's length.
func addPerWorker(a, b []int64) []int64 {
	for len(a) < len(b) {
		a = append(a, 0)
	}
	for w, c := range b {
		a[w] += c
	}
	return a
}

// runSeedPool executes fn(ws, k) for every k in [0, n) on
// min(Options.workers(), n) goroutines that claim indexes from one
// shared atomic counter, with per-worker pooled scratch,
// Options.Progress reporting after each completion, and cooperative
// cancellation: a worker stops claiming once ctx is done. It is the
// shared scaffolding of runSeeds and the multilevel projection sweep. fn reports whether index k produced a candidate (for the
// progress counter); the returned flags mark which indexes completed
// before cancellation, and the phase accumulator sums the per-seed
// stage wall time across workers. Scheduling never affects results:
// fn(ws, k) writes outcomes keyed by k, so the output is
// bit-identical to Workers=1.
func (f *Finder) runSeedPool(ctx context.Context, opt *Options, n int, fn func(ws *workerState, k int) bool) ([]bool, SchedStats, phaseAcc) {
	completed := make([]bool, n)
	if n == 0 {
		return completed, SchedStats{}, phaseAcc{}
	}
	var seedsDone, candsFound atomic.Int64
	var progMu sync.Mutex
	report := func() {
		if opt.Progress == nil {
			return
		}
		progMu.Lock()
		opt.Progress(Progress{
			SeedsDone:  int(seedsDone.Load()),
			SeedsTotal: n,
			Candidates: int(candsFound.Load()),
		})
		progMu.Unlock()
	}

	nWorkers := min(opt.workers(), n)
	// Each worker writes only its own element of the per-worker slices.
	sched := SchedStats{Workers: nWorkers, WorkerSeeds: make([]int64, nWorkers), WorkerBusyNS: make([]int64, nWorkers)}
	var next atomic.Int64
	var phases phaseAcc
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := f.acquire(opt)
			defer f.release(ws)
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					break
				}
				t := clock()
				if fn(ws, k) {
					candsFound.Add(1)
				}
				sched.WorkerBusyNS[w] += int64(clock().Sub(t))
				sched.WorkerSeeds[w]++
				completed[k] = true
				seedsDone.Add(1)
				report()
			}
			// Harvest this worker's phase clocks before the state goes
			// back to the pool (acquire re-zeroes them regardless).
			for p := range ws.gr.phases {
				if v := ws.gr.phases[p]; v != 0 {
					atomic.AddInt64(&phases[p], v)
				}
			}
		}(w)
	}
	wg.Wait()
	return completed, sched, phases
}

// Find runs the full three-phase finder under ctx. With Options.Levels
// > 1 it runs the multilevel pipeline (coarsen → detect on the
// coarsest level → project + boundary-refine down); otherwise the
// classic flat pipeline. On cancellation it returns the partial Result
// assembled from the seeds that completed, together with an error
// wrapping ctx.Err().
func (f *Finder) Find(ctx context.Context, opt Options) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	lv, err := f.pickLevel(&opt)
	if err != nil {
		return nil, err
	}
	return f.run(ctx, &opt, lv, nil, start)
}

// detectLevel is where a run's seeds execute: the engine itself, or
// the coarsest level's sub-engine under its rescaled options together
// with the hierarchy its winners project down through.
type detectLevel struct {
	f   *Finder
	opt *Options
	ms  *mlState // nil when the seeds run on the engine's own netlist
}

// pickLevel decides where a run's seeds execute. A hierarchy that
// cannot coarsen (netlist at or below the coarsening floor) makes the
// flat run the multilevel run.
//
// It also owns the ordering cap's one data-dependent rule: an ordering
// may not swallow the netlist, or Phase II has no exterior to contrast
// a minimum against, so a MaxOrderLen of |V| or more runs at
// max(⌊|V|/2⌋, 2). The rule applies to the level's copy of the
// options, before any coarse rescaling; opt keeps the cap as
// requested, so Options.Key, and with it the replay check and every
// cache, keys on what the caller asked for.
func (f *Finder) pickLevel(opt *Options) (detectLevel, error) {
	capped := *opt
	if n := f.nl.NumCells(); capped.MaxOrderLen >= n {
		capped.MaxOrderLen = max(n/2, 2)
	}
	if opt.Levels > 1 {
		ms, err := f.multilevelState(opt)
		if err != nil {
			return detectLevel{}, err
		}
		if L := ms.hier.NumLevels(); L > 1 {
			top := ms.finders[L-1]
			copt := coarseOptions(&capped, f.nl.NumCells(), top.nl.NumCells(), L-1)
			return detectLevel{f: top, opt: &copt, ms: ms}, nil
		}
	}
	return detectLevel{f: f, opt: &capped}, nil
}

// maxLen is the level's effective ordering cap.
func (lv *detectLevel) maxLen() int { return min(lv.opt.MaxOrderLen, lv.f.nl.NumCells()) }

// run executes a whole run on level lv: every seed (replaying from src
// where it can), global pruning on that level (on a coarse level its
// survivors are the only groups worth projecting down), the projection
// descent when the level is coarse, and — under RecordIncremental, for
// a run that completed — the recording. start stamps Result.Elapsed,
// so a cold multilevel run includes its coarsening.
func (f *Finder) run(ctx context.Context, opt *Options, lv detectLevel, src *replaySrc, start time.Time) (*Result, error) {
	detectStart := start
	if lv.ms != nil {
		detectStart = time.Now()
	}
	plan := lv.f.plan(lv.opt)
	sr, err := lv.f.runSeeds(ctx, lv.opt, plan, opt.RecordIncremental, src)
	res := lv.f.assemble(lv.opt, plan, sr.outs)
	sched := sr.sched // a copy: a pointer into sr would pin its seed records
	res.Sched = &sched
	res.Stages.Merge(sr.stages)
	if src != nil {
		res.Incremental = src.stats(sr.outs, res.GTLs)
	}
	if lv.ms != nil {
		res, err = f.projectDown(ctx, opt, lv.ms, res,
			float64(time.Since(detectStart))/float64(time.Millisecond), err)
	}
	res.Elapsed = time.Since(start)
	if err == nil && opt.RecordIncremental {
		res.IncrState = lv.record(opt, sr)
	}
	return res, err
}

// cand is one refined candidate awaiting Phase III pruning.
type cand struct {
	set   *group.Set
	score float64
	rent  float64
	seed  netlist.CellID
}

// assemble turns executed owner outcomes into a Result: it expands
// duplicate-seed traces, gathers candidates in schedule order and runs
// the global Phase III pruning. outs must be ascending by idx but may
// be partial (cancelled runs); traces and candidates of missing seeds
// are simply absent.
func (f *Finder) assemble(opt *Options, plan seedPlan, outs []seedOut) *Result {
	res := &Result{AG: f.aG, Stages: telemetry.StageTimings{}}
	byIdx := make(map[int]*seedOut, len(outs))
	for k := range outs {
		byIdx[outs[k].idx] = &outs[k]
	}
	var cands []cand
	rentSum, rentN := 0.0, 0
	for i := 0; i < opt.Seeds; i++ {
		o, ok := byIdx[plan.owner[i]]
		if !ok {
			continue // owner seed never ran (cancelled before it started)
		}
		res.Seeds = append(res.Seeds, o.trace)
		if plan.owner[i] != i {
			continue // duplicate: trace copied, candidate counted once
		}
		if o.cand != nil {
			cands = append(cands, cand{o.cand, o.score, o.rent, plan.ids[i]})
			rentSum += o.rent
			rentN++
		}
	}
	if rentN > 0 {
		res.Rent = rentSum / float64(rentN)
	}
	res.Candidates = len(cands)
	pruneStart := time.Now()
	f.prune(opt, cands, res)
	res.Stages.Add(StagePrune, time.Since(pruneStart))
	return res
}

// prune implements global Phase III pruning: sort refined candidates by
// score, greedily keep the disjoint prefix-best set, trimming small
// overlaps with already-accepted GTLs.
func (f *Finder) prune(opt *Options, cands []cand, res *Result) {
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score < cands[j].score })
	taken := ds.NewBitset(f.nl.NumCells())
	ws := f.acquire(opt)
	defer f.release(ws)
	pruneEval := ws.ev
	for _, c := range cands {
		overlap := 0
		for _, m := range c.set.Members {
			if taken.Has(int(m)) {
				overlap++
			}
		}
		if float64(overlap) > opt.PruneOverlapTolerance*float64(c.set.Size()) {
			continue // substantially the same structure as a better GTL
		}
		set := *c.set
		score := c.score
		if overlap > 0 {
			// Trim the junction cells already owned by a better GTL
			// and re-evaluate the remainder.
			kept := make([]netlist.CellID, 0, set.Size()-overlap)
			for _, m := range set.Members {
				if !taken.Has(int(m)) {
					kept = append(kept, m)
				}
			}
			if len(kept) < opt.MinGroupSize {
				continue
			}
			set = pruneEval.Eval(kept)
			score = scoreVals(set.Cut, set.Size(), set.Pins, c.rent, f.aG, opt.Metric)
		}
		for _, m := range set.Members {
			taken.Add(int(m))
		}
		res.GTLs = append(res.GTLs, GTL{
			Members: set.Members,
			Cut:     set.Cut,
			Pins:    set.Pins,
			Score:   score,
			NGTLS:   metrics.NGTLScore(set.Cut, set.Size(), c.rent, f.aG),
			GTLSD:   metrics.GTLSD(set.Cut, set.Size(), set.Pins, c.rent, f.aG),
			Rent:    c.rent,
			Seed:    c.seed,
		})
	}
	// Trimming can disturb the best-first order slightly; restore it.
	sort.SliceStable(res.GTLs, func(i, j int) bool { return res.GTLs[i].Score < res.GTLs[j].Score })
}
