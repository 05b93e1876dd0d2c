package core

import (
	"context"
	"sync/atomic"
)

// Work-stealing seed scheduler.
//
// The engine's unit of work is one seed, and seed costs are wildly
// uneven: a seed that lands in a tangled region grows a MaxOrderLen
// ordering and runs RefineSeeds extra growths, while a seed on a clean
// rail exhausts its reachable region in a handful of cells. A static
// per-worker partition therefore serializes a whole worker's tail
// behind its stragglers. Instead each worker owns a contiguous range
// of schedule indexes packed into one atomic word; the owner pops one
// index at a time off the front and an idle worker steals the back
// half of the largest remainder it can find. Chunking is adaptive by
// construction — every migration halves the victim's remaining range,
// so chunks shrink geometrically toward the end of the run exactly
// where cost variance hurts most.
//
// Determinism: stealing moves *indexes*, never results. Each index k
// is executed exactly once (the packed-range CAS hands it to exactly
// one worker), its RNG stream is seedRNG(RandSeed, i) regardless of
// which worker runs it, and its outcome lands in outs[k]. The
// schedule→output mapping is a pure function of Options, so results
// are bit-identical to Workers=1 no matter how the steal race
// resolves. The differential lock for this claim lives in
// internal/netlist/deltatest's parallel harness.

// SchedStats describes how one run's seed schedule was executed:
// resolved worker count, per-worker seed counts and steal traffic.
// It is JSON-tagged so bench artifacts and the serving stats endpoint
// can publish it verbatim.
type SchedStats struct {
	// Workers is the resolved worker count (Options.Workers after the
	// <=0 → GOMAXPROCS default and the can't-exceed-items clamp).
	Workers int `json:"workers"`
	// Steals counts successful steal operations; SeedsStolen counts the
	// seeds those steals migrated. Zero on a balanced schedule.
	Steals      int64 `json:"steals"`
	SeedsStolen int64 `json:"seeds_stolen"`
	// WorkerSeeds[w] is how many seeds worker w executed; the spread is
	// the utilization picture (max/mean ≈ 1 means the pool stayed
	// saturated).
	WorkerSeeds []int64 `json:"worker_seeds,omitempty"`
	// WorkerBusyNS[w] is the wall time (ns) worker w spent executing
	// seeds; WorkerStealNS[w] is what it spent scanning for and
	// performing steals. The gap between max(busy) and the run's
	// elapsed time is the scheduling overhead picture.
	WorkerBusyNS  []int64 `json:"worker_busy_ns,omitempty"`
	WorkerStealNS []int64 `json:"worker_steal_ns,omitempty"`
}

// merge folds another schedule's stats into s (multilevel runs
// schedule twice: coarse detection and projection refinement; merged
// runs schedule once per shard).
func (s *SchedStats) merge(o SchedStats) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Steals += o.Steals
	s.SeedsStolen += o.SeedsStolen
	for len(s.WorkerSeeds) < len(o.WorkerSeeds) {
		s.WorkerSeeds = append(s.WorkerSeeds, 0)
	}
	for w, c := range o.WorkerSeeds {
		s.WorkerSeeds[w] += c
	}
	for len(s.WorkerBusyNS) < len(o.WorkerBusyNS) {
		s.WorkerBusyNS = append(s.WorkerBusyNS, 0)
	}
	for w, c := range o.WorkerBusyNS {
		s.WorkerBusyNS[w] += c
	}
	for len(s.WorkerStealNS) < len(o.WorkerStealNS) {
		s.WorkerStealNS = append(s.WorkerStealNS, 0)
	}
	for w, c := range o.WorkerStealNS {
		s.WorkerStealNS[w] += c
	}
}

// stealQueue is one worker's share of the schedule: the half-open
// index range [next, end) packed (next<<32 | end) into a single
// atomic word, so the owner's take-one and a thief's take-half are
// each one CAS. The pad keeps neighboring queues on distinct cache
// lines; without it every CAS would bounce the whole group's lines.
type stealQueue struct {
	r atomic.Uint64
	_ [56]byte
}

func packRange(next, end uint32) uint64 { return uint64(next)<<32 | uint64(end) }

func unpackRange(v uint64) (next, end uint32) { return uint32(v >> 32), uint32(v) }

// take pops the front index for the owner; ok=false when empty.
func (q *stealQueue) take() (int, bool) {
	for {
		cur := q.r.Load()
		next, end := unpackRange(cur)
		if next >= end {
			return 0, false
		}
		if q.r.CompareAndSwap(cur, packRange(next+1, end)) {
			return int(next), true
		}
	}
}

// stealHalf detaches the back half of the queue's remaining range.
// A single remaining item is not worth a migration — its owner
// finishes it cheaper than the CAS traffic — so ok=false below two.
func (q *stealQueue) stealHalf() (lo, hi int, ok bool) {
	for {
		cur := q.r.Load()
		next, end := unpackRange(cur)
		if next >= end || end-next < 2 {
			return 0, 0, false
		}
		mid := next + (end-next+1)/2
		if q.r.CompareAndSwap(cur, packRange(next, mid)) {
			return int(mid), int(end), true
		}
	}
}

// remaining reports the queue's current backlog (racy; scheduling
// heuristic only).
func (q *stealQueue) remaining() int {
	next, end := unpackRange(q.r.Load())
	if next >= end {
		return 0
	}
	return int(end - next)
}

// stealGroup is the shared schedule of one run: nWorkers queues over
// [0, n) plus per-worker counters (each written only by its worker
// until the final aggregation).
type stealGroup struct {
	queues []stealQueue
	exec   []int64
	steals []int64
	stolen []int64
	// busy/stealNS are the per-worker execute and steal-scan clocks (ns).
	busy    []int64
	stealNS []int64
}

func newStealGroup(n, nWorkers int) *stealGroup {
	g := &stealGroup{
		queues:  make([]stealQueue, nWorkers),
		exec:    make([]int64, nWorkers),
		steals:  make([]int64, nWorkers),
		stolen:  make([]int64, nWorkers),
		busy:    make([]int64, nWorkers),
		stealNS: make([]int64, nWorkers),
	}
	for w := 0; w < nWorkers; w++ {
		lo := w * n / nWorkers
		hi := (w + 1) * n / nWorkers
		g.queues[w].r.Store(packRange(uint32(lo), uint32(hi)))
	}
	return g
}

// run is worker w's schedule loop: drain the own queue, then steal the
// biggest visible remainder and continue; exit when a full scan finds
// nothing left to take or steal (remaining singletons belong to their
// owners, which always drain their own queue before exiting).
func (g *stealGroup) run(ctx context.Context, w int, exec func(k int)) {
	var ran, steals, stolen int64
	var busyNS, stealWaitNS int64
	defer func() {
		g.exec[w] = ran
		g.steals[w] = steals
		g.stolen[w] = stolen
		g.busy[w] = busyNS
		g.stealNS[w] = stealWaitNS
	}()
	own := &g.queues[w]
	for {
		for {
			k, ok := own.take()
			if !ok {
				break
			}
			if ctx.Err() != nil {
				return
			}
			t := clock()
			exec(k)
			busyNS += int64(clock().Sub(t))
			ran++
		}
		// Own queue dry: pick the victim with the largest backlog so a
		// steal moves the most work per CAS, then re-expose the stolen
		// range through the own queue (thieves can sub-steal its tail).
		scanStart := clock()
		victim, best := -1, 1
		for v := range g.queues {
			if v == w {
				continue
			}
			if r := g.queues[v].remaining(); r > best {
				victim, best = v, r
			}
		}
		if victim < 0 {
			stealWaitNS += int64(clock().Sub(scanStart))
			return
		}
		lo, hi, ok := g.queues[victim].stealHalf()
		stealWaitNS += int64(clock().Sub(scanStart))
		if !ok {
			continue // lost the race; rescan
		}
		steals++
		stolen += int64(hi - lo)
		own.r.Store(packRange(uint32(lo), uint32(hi)))
	}
}

// stats aggregates the per-worker counters; call only after every
// worker has returned.
func (g *stealGroup) stats() SchedStats {
	s := SchedStats{Workers: len(g.queues), WorkerSeeds: g.exec, WorkerBusyNS: g.busy, WorkerStealNS: g.stealNS}
	for w := range g.queues {
		s.Steals += g.steals[w]
		s.SeedsStolen += g.stolen[w]
	}
	return s
}
