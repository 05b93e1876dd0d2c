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
// Finder is safe for concurrent use. Results are deterministic for a
// fixed Options.RandSeed regardless of scheduling, worker count, which
// pooled state a worker draws, or whether a run executes whole (Find)
// or as shards (FindShard + Merge).
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
	b += int64(cap(g.ord.Members))*4 + int64(cap(g.ord.Cuts))*4 + int64(cap(g.ord.Pins))*8
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

// MemoryEstimate reports the memory the engine caches in bytes: the
// coarse netlists of cached multilevel hierarchies. The netlist itself
// and worker scratch — idle in the shared pool (PooledScratchBytes) or
// borrowed by in-flight runs — are not counted.
func (f *Finder) MemoryEstimate() int64 {
	var b int64
	for _, s := range f.mlStates() {
		for l := 1; l < s.hier.NumLevels(); l++ {
			b += s.hier.Level(l).MemoryFootprint()
			b += s.finders[l].MemoryEstimate()
		}
	}
	return b
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

// shardOut is the raw outcome of one executed (owner) seed.
type shardOut struct {
	idx   int // seed index in the full schedule
	trace SeedTrace
	cand  *group.Set // refined candidate B̂ (nil if none)
	score float64
	rent  float64
}

// ShardResult holds the raw per-seed outcomes for the seed-index range
// [Lo, Hi) of one run's schedule. Shards exist so one large run can be
// split into resumable chunks within one process — run each range
// separately (sequentially, concurrently, or interleaved with other
// work) and Merge the pieces into the exact Result a single Find would
// have produced. ShardResult is not serializable yet; cross-process
// resume would need an explicit wire format.
type ShardResult struct {
	Lo, Hi  int
	Elapsed time.Duration
	outs    []shardOut    // executed owner seeds, ascending by idx
	recs    []*seedRecord // positional with outs; only under RecordIncremental via Find
	sched   SchedStats    // how the shard's schedule was executed
	levels  int           // Options.Levels the shard ran under (<=1: flat)
	stages  telemetry.StageTimings
}

// Sched reports how the shard's seed schedule was executed across
// workers (steal traffic, per-worker seed counts).
func (s *ShardResult) Sched() SchedStats { return s.sched }

// Stages reports the shard's per-seed phase wall time, summed across
// workers (see Result.Stages for the semantics).
func (s *ShardResult) Stages() telemetry.StageTimings { return s.stages }

// SeedsRun returns how many unique seeds this shard executed.
func (s *ShardResult) SeedsRun() int { return len(s.outs) }

// FindShard executes seeds [lo, hi) of the run's deterministic schedule
// and returns their raw outcomes. Phase III pruning is global, so it
// happens at Merge time, not per shard.
//
// With Options.Levels > 1 the schedule is the coarsest level's: the
// hierarchy is built (and cached) first, the shard runs coarse
// detection seeds, and Merge performs the global pruning plus the
// projection/refinement descent. Shards of a multilevel run can only
// be merged under the same Levels.
//
// On cancellation the returned error wraps ctx.Err() and the returned
// ShardResult holds the seeds that completed; it is not accepted by
// Merge (rerun the shard to completion for that), but Find uses the
// same machinery to assemble a partial Result.
func (f *Finder) FindShard(ctx context.Context, opt Options, lo, hi int) (*ShardResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi > opt.Seeds || lo >= hi {
		return nil, fmt.Errorf("core: shard [%d,%d) out of range for %d seeds", lo, hi, opt.Seeds)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Levels > 1 {
		ms, err := f.multilevelState(&opt)
		if err != nil {
			return nil, err
		}
		if L := ms.hier.NumLevels(); L > 1 {
			// Shard the coarsest level's deterministic schedule; the
			// seed count is unchanged (coarseOptions rescales only the
			// size-dependent knobs), so [lo,hi) bounds carry over.
			top := ms.finders[L-1]
			copt := coarseOptions(&opt, f.nl.NumCells(), top.nl.NumCells(), L-1)
			sr, err := top.findShard(ctx, &copt, top.plan(&copt), lo, hi, false)
			if sr != nil {
				sr.levels = opt.Levels
			}
			return sr, err
		}
		// Degenerate hierarchy (netlist at or below the coarsening
		// floor): the flat schedule is the multilevel schedule.
	}
	return f.findShard(ctx, &opt, f.plan(&opt), lo, hi, false)
}

// findShard is the validated core of FindShard, taking a precomputed
// plan so Find does not derive the schedule twice per run. With record
// set it captures per-seed incremental state alongside the outcomes.
func (f *Finder) findShard(ctx context.Context, opt *Options, plan seedPlan, lo, hi int, record bool) (*ShardResult, error) {
	start := time.Now()

	// Only first occurrences run; duplicates inherit the owner's result.
	var run []int
	for i := lo; i < hi; i++ {
		if plan.owner[i] == i {
			run = append(run, i)
		}
	}

	outs := make([]shardOut, len(run))
	var recs []*seedRecord
	if record {
		recs = make([]*seedRecord, len(run))
	}
	completed, sched, phases := f.runSeedPool(ctx, opt, len(run), func(ws *workerState, k int) bool {
		i := run[k]
		// Per-seed RNG derived from (RandSeed, i): identical streams
		// no matter which worker runs the job.
		rng := seedRNG(opt.RandSeed, i)
		var rec *seedRecord
		if record {
			rec = &seedRecord{}
			recs[k] = rec
		}
		o := runSeed(f.nl, ws.gr, ws.ev, rng, plan.ids[i], opt, f.aG, rec)
		outs[k] = shardOut{idx: i, trace: o.trace, cand: o.candidate, score: o.score, rent: o.rent}
		return o.candidate != nil
	})

	sr := &ShardResult{Lo: lo, Hi: hi, Elapsed: time.Since(start), sched: sched, stages: phases.stages()}
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
		// did not cost any work: the shard is complete, report success.
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

// runSeedPool executes fn(ws, k) for every k in [0, n) on a
// work-stealing worker pool (see steal.go) with per-worker pooled
// scratch, Options.Progress reporting after each completion, and
// cooperative cancellation — the shared scaffolding of findShard,
// FindIncremental and the multilevel projection sweep. fn reports
// whether index k produced a candidate (for the progress counter);
// the returned flags mark which indexes completed before
// cancellation, and the phase accumulator sums the per-seed stage
// wall time across workers. Scheduling never affects results:
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

	nWorkers := opt.workers()
	if nWorkers > n {
		nWorkers = n
	}
	sched := newStealGroup(n, nWorkers)
	var phases phaseAcc
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := f.acquire(opt)
			defer f.release(ws)
			sched.run(ctx, w, func(k int) {
				if fn(ws, k) {
					candsFound.Add(1)
				}
				completed[k] = true
				seedsDone.Add(1)
				report()
			})
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
	return completed, sched.stats(), phases
}

// Merge combines complete shards covering [0, Options.Seeds)
// contiguously into the final Result, applying Phase III pruning
// globally. The shards must come from the same netlist and Options;
// the merged Result is byte-identical to a single Find with the same
// Options. Result.Elapsed is the summed shard compute time (plus, for
// multilevel runs, the projection/refinement descent Merge itself
// performs at merge time).
func (f *Finder) Merge(opt Options, shards ...*ShardResult) (*Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if opt.Levels > 1 {
		ms, err := f.multilevelState(&opt)
		if err != nil {
			return nil, err
		}
		if L := ms.hier.NumLevels(); L > 1 {
			// The shards hold coarse-level outcomes: assemble and prune
			// them on the coarsest level, then run the same projection
			// descent Find's multilevel path runs.
			top := ms.finders[L-1]
			copt := coarseOptions(&opt, f.nl.NumCells(), top.nl.NumCells(), L-1)
			cres, err := top.mergeShards(&copt, opt.Levels, shards)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := f.projectDown(context.Background(), &opt, ms, cres,
				float64(cres.Elapsed)/float64(time.Millisecond), nil)
			if res != nil {
				res.Elapsed = cres.Elapsed + time.Since(start)
			}
			return res, err
		}
	}
	return f.mergeShards(&opt, 0, shards)
}

// mergeShards is the flat merge: coverage validation, owner-outcome
// reassembly and global pruning. wantLevels is the Levels tag every
// shard must carry (0 for flat schedules), guarding against mixing
// shards produced under a different hierarchy configuration.
func (f *Finder) mergeShards(opt *Options, wantLevels int, shards []*ShardResult) (*Result, error) {
	ordered := make([]*ShardResult, len(shards))
	copy(ordered, shards)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Lo < ordered[j].Lo })
	next := 0
	var elapsed time.Duration
	var sched SchedStats
	stages := telemetry.StageTimings{}
	for _, s := range ordered {
		if s.levels != wantLevels {
			return nil, fmt.Errorf("core: shard [%d,%d) was produced under Levels=%d, merge expects Levels=%d", s.Lo, s.Hi, s.levels, wantLevels)
		}
		if s.Lo != next {
			return nil, fmt.Errorf("core: shard coverage gap: expected seed %d, got shard [%d,%d)", next, s.Lo, s.Hi)
		}
		next = s.Hi
		elapsed += s.Elapsed
		sched.merge(s.sched)
		stages.Merge(s.stages)
	}
	if next != opt.Seeds {
		return nil, fmt.Errorf("core: shards cover seeds [0,%d), want [0,%d)", next, opt.Seeds)
	}

	plan := f.plan(opt)
	byIdx := make([]*shardOut, opt.Seeds)
	for _, s := range ordered {
		for k := range s.outs {
			byIdx[s.outs[k].idx] = &s.outs[k]
		}
	}
	// A partial (cancelled) shard is missing owner outcomes; refuse it.
	for i := 0; i < opt.Seeds; i++ {
		if plan.owner[i] == i && byIdx[i] == nil {
			return nil, fmt.Errorf("core: shard covering seed %d is incomplete (cancelled run?); rerun it before merging", i)
		}
	}

	var ownerOuts []shardOut
	for i := 0; i < opt.Seeds; i++ {
		if plan.owner[i] == i {
			ownerOuts = append(ownerOuts, *byIdx[i])
		}
	}
	res := f.assemble(opt, plan, ownerOuts)
	res.Elapsed = elapsed
	res.Sched = &sched
	res.Stages.Merge(stages)
	return res, nil
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
	if opt.Levels > 1 {
		return f.findMultilevel(ctx, &opt)
	}
	return f.findFlat(ctx, &opt)
}

// findFlat is the validated single-level pipeline Find has always run.
// Under Options.RecordIncremental a completed run carries the per-seed
// incremental state on the Result.
func (f *Finder) findFlat(ctx context.Context, opt *Options) (*Result, error) {
	start := time.Now()
	plan := f.plan(opt)
	sr, err := f.findShard(ctx, opt, plan, 0, opt.Seeds, opt.RecordIncremental)
	if err != nil && sr == nil {
		return nil, err
	}
	res := f.assemble(opt, plan, sr.outs)
	res.Elapsed = time.Since(start)
	res.Sched = &sr.sched
	res.Stages.Merge(sr.stages)
	if err == nil && opt.RecordIncremental {
		res.IncrState = f.buildIncrState(opt, sr.outs, sr.recs)
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
func (f *Finder) assemble(opt *Options, plan seedPlan, outs []shardOut) *Result {
	res := &Result{AG: f.aG, Stages: telemetry.StageTimings{}}
	byIdx := make(map[int]*shardOut, len(outs))
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

// FindMany runs the finder over a batch of netlists with shared
// Options, constructing one engine per netlist. The returned slice is
// positional: results[i] corresponds to nls[i]. Netlists run
// sequentially (each run is internally parallel); on error or
// cancellation the slice holds the results completed so far — including
// a partial result for the interrupted netlist — alongside the error.
func FindMany(ctx context.Context, nls []*netlist.Netlist, opt Options) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(nls))
	for i, nl := range nls {
		f, err := NewFinder(nl)
		if err != nil {
			return results, fmt.Errorf("core: netlist %d: %w", i, err)
		}
		res, err := f.Find(ctx, opt)
		results[i] = res
		if err != nil {
			return results, fmt.Errorf("core: netlist %d: %w", i, err)
		}
	}
	return results, nil
}
