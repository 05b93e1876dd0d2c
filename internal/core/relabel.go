package core

import (
	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Locality-permuted execution (Options.Relabel).
//
// Under Relabel the engine builds — once per Finder, lazily — a shadow
// engine over a reverse-Cuthill–McKee-permuted copy of the netlist
// (netlist.LocalityOrder + netlist.PermuteCells) and routes every
// seeded-growth shard through it: the dense frontier array and the CSR
// pin runs are then indexed in an id space where connected cells sit
// on nearby cache lines. The translation boundary is findShard — plans
// are translated in, traces/candidates/incremental records are
// translated back out — so assemble, prune, Merge, incremental replay
// and the multilevel projection descent all keep running in original
// id space, untouched. Multilevel runs inherit Relabel for their
// coarse detection pass automatically (it goes through the coarse
// finder's findShard); the per-level boundary refinement stays
// unpermuted by design — it is a sweep over already-localized members,
// not a frontier growth.
//
// Equivalence guarantee: only cell ids are permuted, never net ids, so
// each absorbed cell's CellPins run — and with it the order gain
// deltas accumulate per frontier cell — is positionally identical to
// the unpermuted run's. Materialized outside-pin lists are sorted by
// original rank (grower.sortByRank) and the heap breaks final ties by
// rank (ds.GainHeap.SetRank), so discovery order, every tiebreak, and
// the pop sequence are physically identical too: the shadow performs
// the same absorb sequence and produces bitwise-equal scores. The one
// visible difference is member order inside recombined (Phase III
// union/intersect/difference) winners, whose members are sorted by
// permuted id — which is why Relabel's contract is set-equality with
// bitwise-equal scores rather than bit-identity, and why the deltatest
// differential compares groups as sets.
type shadowState struct {
	perm []int32 // original id -> permuted id
	rank []int32 // permuted id -> original id (inverse of perm)
	pf   *Finder // shadow engine over the permuted netlist
}

// shadow returns the engine's relabel shadow, building and caching it
// on first use. The build — permutation, CSR rewrite, shadow engine —
// is O(cells + pins) and serializes concurrent first users.
func (f *Finder) shadow() (*shadowState, error) {
	f.shMu.Lock()
	defer f.shMu.Unlock()
	if f.sh != nil {
		return f.sh, nil
	}
	perm := netlist.LocalityOrder(f.nl)
	pnl, err := netlist.PermuteCells(f.nl, perm)
	if err != nil {
		return nil, err
	}
	pf, err := NewFinder(pnl)
	if err != nil {
		return nil, err
	}
	n := f.nl.NumCells()
	sh := &shadowState{perm: make([]int32, n), rank: make([]int32, n), pf: pf}
	for old, nw := range perm {
		sh.perm[old] = int32(nw)
		sh.rank[nw] = int32(old)
	}
	pf.rank = sh.rank
	pf.baseline.Store(f.baseline.Load())
	f.sh = sh
	return sh, nil
}

// shadowMemoryEstimate reports the retained bytes of the relabel
// shadow, if one has been built: the permuted netlist, both id maps
// and whatever the shadow engine itself caches.
func (f *Finder) shadowMemoryEstimate() int64 {
	f.shMu.Lock()
	sh := f.sh
	f.shMu.Unlock()
	if sh == nil {
		return 0
	}
	return sh.pf.nl.MemoryFootprint() + int64(cap(sh.perm))*4 + int64(cap(sh.rank))*4 +
		sh.pf.MemoryEstimate()
}

// translatePlan maps a schedule's seed cells into permuted id space.
// The owner map carries over unchanged: the permutation is a bijection,
// so two schedule slots collide in permuted space exactly when they
// collide in original space.
func (sh *shadowState) translatePlan(plan seedPlan) seedPlan {
	ids := make([]netlist.CellID, len(plan.ids))
	for i, id := range plan.ids {
		ids[i] = netlist.CellID(sh.perm[id])
	}
	return seedPlan{ids: ids, owner: plan.owner}
}

func (sh *shadowState) translateMembers(members []netlist.CellID) {
	for i, m := range members {
		members[i] = netlist.CellID(sh.rank[m])
	}
}

// translateShardOut rewrites a shadow-produced shard into original id
// space, in place: seed traces, candidate members and (when recorded)
// the per-seed incremental records with their footprint bitsets.
// Curves and scores carry no ids and are bitwise-equal to the
// unpermuted run's by the physical-identity argument above.
func (sh *shadowState) translateShardOut(sr *ShardResult) {
	for k := range sr.outs {
		o := &sr.outs[k]
		o.trace.Seed = netlist.CellID(sh.rank[o.trace.Seed])
		if o.cand != nil {
			sh.translateMembers(o.cand.Members)
		}
	}
	for _, rec := range sr.recs {
		if rec != nil {
			sh.translateRecord(rec)
		}
	}
}

// translateRecord rewrites one seed's incremental record into original
// id space, so replaySeed and footprint-vs-dirty intersection work on
// the caller's netlist without knowing the shadow exists. Growth order
// is physically identical to an unpermuted run's, so the translated
// record is exactly what recording without Relabel would have stored.
func (sh *shadowState) translateRecord(rec *seedRecord) {
	rec.seed = netlist.CellID(sh.rank[rec.seed])
	sh.translateMembers(rec.ord.members)
	for i := range rec.refine {
		rr := &rec.refine[i]
		rr.seed = netlist.CellID(sh.rank[rr.seed])
		sh.translateMembers(rr.ord.members)
	}
	if rec.foot != nil {
		foot := ds.NewBitset(len(sh.rank))
		rec.foot.ForEach(func(i int) { foot.Add(int(sh.rank[i])) })
		rec.foot = foot
	}
}

// runSeedTranslated executes one seed's full growth pipeline on the
// shadow and returns its outcome in original id space — the relabel
// path of findIncrementalFlat's reseed branch, where replayed and
// re-grown seeds mix in one pool. host is the calling pool's worker
// state: the shadow worker's phase clocks are folded into it so stage
// timing survives the indirection.
func (sh *shadowState) runSeedTranslated(host *workerState, i int, id netlist.CellID, opt *Options, rec *seedRecord) seedOut {
	ws := sh.pf.acquire(opt)
	o := runSeed(sh.pf.nl, ws.gr, ws.ev, seedRNG(opt.RandSeed, i),
		netlist.CellID(sh.perm[id]), opt, sh.pf.aG, rec)
	for p := range ws.gr.phases {
		host.gr.phases[p] += ws.gr.phases[p]
	}
	sh.pf.release(ws)
	o.trace.Seed = netlist.CellID(sh.rank[o.trace.Seed])
	if o.candidate != nil {
		sh.translateMembers(o.candidate.Members)
	}
	if rec != nil {
		sh.translateRecord(rec)
	}
	return o
}
