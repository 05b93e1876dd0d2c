package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"
	"weak"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// incrWorkload builds a Table-1-style planted-block workload and the
// options a recorded baseline run uses.
func incrWorkload(t testing.TB, cells, block int, seed uint64) (*generate.RandomGraph, Options) {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  cells,
		Blocks: []generate.BlockSpec{{Size: block}},
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Seeds = 24
	opt.MaxOrderLen = 3 * block / 2
	opt.RecordIncremental = true
	return rg, opt
}

// sameResult asserts two results are equal up to float tolerance —
// the differential oracle the incremental engine is specified by.
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	const tol = 1e-9
	if len(want.GTLs) != len(got.GTLs) {
		t.Fatalf("GTL count %d vs %d", len(want.GTLs), len(got.GTLs))
	}
	for i := range want.GTLs {
		a, b := &want.GTLs[i], &got.GTLs[i]
		if a.Size() != b.Size() || a.Cut != b.Cut || a.Pins != b.Pins || a.Seed != b.Seed {
			t.Fatalf("GTL %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				t.Fatalf("GTL %d member %d: %d vs %d", i, j, a.Members[j], b.Members[j])
			}
		}
		if math.Abs(a.Score-b.Score) > tol || math.Abs(a.NGTLS-b.NGTLS) > tol || math.Abs(a.GTLSD-b.GTLSD) > tol {
			t.Fatalf("GTL %d scores differ: %g/%g/%g vs %g/%g/%g", i, a.Score, a.NGTLS, a.GTLSD, b.Score, b.NGTLS, b.GTLSD)
		}
	}
	if want.Candidates != got.Candidates {
		t.Fatalf("candidates %d vs %d", want.Candidates, got.Candidates)
	}
	if len(want.Seeds) != len(got.Seeds) {
		t.Fatalf("seed traces %d vs %d", len(want.Seeds), len(got.Seeds))
	}
	for i := range want.Seeds {
		a, b := &want.Seeds[i], &got.Seeds[i]
		if a.Seed != b.Seed || a.OrderLen != b.OrderLen || a.Extracted != b.Extracted || a.Size != b.Size {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.Score-b.Score) > tol {
			t.Fatalf("trace %d score %g vs %g", i, a.Score, b.Score)
		}
	}
	if math.Abs(want.Rent-got.Rent) > tol {
		t.Fatalf("rent %g vs %g", want.Rent, got.Rent)
	}
}

// TestFindIncrementalMatchesFull is the core-level differential check:
// after a background rewire, FindIncremental on the patched netlist
// must equal a from-scratch Find, while actually reusing seeds.
func TestFindIncrementalMatchesFull(t *testing.T) {
	rg, opt := incrWorkload(t, 6000, 400, 3)
	ctx := context.Background()

	f0, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f0.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if prev.IncrState == nil {
		t.Fatal("RecordIncremental run carries no state")
	}
	if prev.IncrState.MemoryEstimate() <= 0 {
		t.Error("state memory estimate not positive")
	}

	// Rewire one background net far from the planted block (block
	// cells occupy the front of the id space in generated graphs; use
	// high ids and verify they are background).
	inBlock := make(map[netlist.CellID]bool)
	for _, c := range rg.Blocks[0] {
		inBlock[c] = true
	}
	n := rg.Netlist.NumCells()
	var a, b netlist.CellID = -1, -1
	for c := n - 1; c >= 0 && (a < 0 || b < 0); c-- {
		if !inBlock[netlist.CellID(c)] {
			if a < 0 {
				a = netlist.CellID(c)
			} else {
				b = netlist.CellID(c)
			}
		}
	}
	var editNet netlist.NetID = -1
	for e := 0; e < rg.Netlist.NumNets(); e++ {
		pins := rg.Netlist.NetPins(netlist.NetID(e))
		ok := len(pins) >= 2
		for _, c := range pins {
			if inBlock[c] {
				ok = false
				break
			}
		}
		if ok {
			editNet = netlist.NetID(e)
			break
		}
	}
	if editNet < 0 {
		t.Fatal("no background net found")
	}
	d := &netlist.Delta{SetNets: []netlist.NetEdit{{Net: editNet, Cells: []netlist.CellID{a, b}}}}
	patched, eff, err := d.Apply(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}

	fFull, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	optFull := opt
	optFull.RecordIncremental = false
	full, err := fFull.Find(ctx, optFull)
	if err != nil {
		t.Fatal(err)
	}

	fIncr, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := fIncr.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, incr)
	if incr.Incremental == nil || incr.Incremental.FullFallback {
		t.Fatalf("incremental stats = %+v", incr.Incremental)
	}
	if incr.Incremental.ReusedSeeds+incr.Incremental.RerunSeeds != 24 {
		t.Errorf("seed accounting: %+v", incr.Incremental)
	}
	if incr.IncrState == nil {
		t.Error("incremental run with RecordIncremental lost its state")
	}
}

// TestFindIncrementalChain chains three deltas, each incremental run
// feeding the next, with a full-run oracle at every step.
func TestFindIncrementalChain(t *testing.T) {
	rg, opt := incrWorkload(t, 4000, 300, 7)
	ctx := context.Background()
	f0, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f0.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	for step := 0; step < 3; step++ {
		// Rotate pins of one mid-range net.
		e := netlist.NetID((step*13 + 5) % nl.NumNets())
		pins := append([]netlist.CellID(nil), nl.NetPins(e)...)
		cells := []netlist.CellID{netlist.CellID((step*101 + 7) % nl.NumCells()), netlist.CellID((step*211 + 19) % nl.NumCells())}
		cells = append(cells, pins...)
		d := &netlist.Delta{SetNets: []netlist.NetEdit{{Net: e, Cells: cells[:2+len(pins)/2]}}}
		patched, eff, err := d.Apply(nl)
		if err != nil {
			t.Fatal(err)
		}
		fFull, _ := NewFinder(patched)
		optFull := opt
		optFull.RecordIncremental = false
		full, err := fFull.Find(ctx, optFull)
		if err != nil {
			t.Fatal(err)
		}
		fIncr, _ := NewFinder(patched)
		incr, err := fIncr.FindIncremental(ctx, opt, prev, eff.Dirty)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, full, incr)
		nl, prev = patched, incr
	}
}

func TestFindIncrementalFallbacks(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 11)
	ctx := context.Background()
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}

	// No state.
	res, err := f.FindIncremental(ctx, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental == nil || !res.Incremental.FullFallback {
		t.Fatalf("nil prev should fall back: %+v", res.Incremental)
	}

	// Changed result-affecting options.
	opt2 := opt
	opt2.Seeds = 25
	res, err = f.FindIncremental(ctx, opt2, prev, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental.FullFallback {
		t.Fatal("changed Seeds should fall back")
	}

	// Dirty fraction past the 25% threshold.
	dirty := make([]netlist.CellID, 800)
	for i := range dirty {
		dirty[i] = netlist.CellID(i * 17 % rg.Netlist.NumCells())
	}
	res, err = f.FindIncremental(ctx, opt, prev, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental.FullFallback {
		t.Fatal("oversized dirty region should fall back")
	}
	// Fallback results still equal a full run (the run IS a full run,
	// modulo the stats annotation).
	optFull := opt
	optFull.RecordIncremental = false
	full, err := f.Find(ctx, optFull)
	if err != nil {
		t.Fatal(err)
	}
	res.Incremental = nil
	full.Incremental = nil
	sameResult(t, full, res)
}

// TestFindIncrementalFallbackReasons has one row per reason
// FindIncremental abandons reuse for. Every row must report a full
// fallback with exactly its reason and return what Find returns on the
// same netlist and options.
func TestFindIncrementalFallbackReasons(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 13)
	base := rg.Netlist
	ctx := context.Background()
	find := func(nl *netlist.Netlist, o Options) *Result {
		t.Helper()
		f, err := NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Find(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	apply := func(nl *netlist.Netlist, d *netlist.Delta) (*netlist.Netlist, []netlist.CellID) {
		t.Helper()
		patched, eff, err := d.Apply(nl)
		if err != nil {
			t.Fatal(err)
		}
		return patched, eff.Dirty
	}

	// With this floor the 3000-cell netlist coarsens once and loses
	// its hierarchy when its last three cells are removed.
	ml := opt
	ml.Levels = 3
	ml.MinCoarseCells = 2998
	trim := &netlist.Delta{RemoveCells: []netlist.CellID{2997, 2998, 2999}}
	small, trimDirty := apply(base, trim)
	untrim, err := trim.Inverse(base)
	if err != nil {
		t.Fatal(err)
	}
	restored, untrimDirty := apply(small, untrim)
	grown, grownDirty := apply(base, &netlist.Delta{AddCells: []netlist.NewCell{{Name: "eco"}}})
	recorded, mlRecorded, smallRecorded := find(base, opt), find(base, ml), find(small, ml)
	if len(mlRecorded.Levels) == 0 || len(smallRecorded.Levels) != 0 {
		t.Fatal("workload does not straddle the coarsening floor")
	}
	seeds := opt
	seeds.Seeds = 25
	capped := opt
	capped.MaxOrderLen = base.NumCells()
	spread := make([]netlist.CellID, 800)
	for i := range spread {
		spread[i] = netlist.CellID(i * 17 % base.NumCells())
	}

	for _, tc := range []struct {
		name  string
		nl    *netlist.Netlist
		opt   Options
		prev  *Result
		dirty []netlist.CellID
		want  string
	}{
		{"no recorded state", base, opt, nil, nil,
			"previous result carries no incremental state (run with record_incremental)"},
		{"options differ", base, seeds, recorded, nil,
			"result-affecting options differ from the recorded run"},
		{"flat recording into a multilevel run", restored, ml, smallRecorded, untrimDirty,
			"recorded state is flat; multilevel replay needs a multilevel recording"},
		{"multilevel recording into a netlist that no longer coarsens", small, ml, mlRecorded, trimDirty,
			"recorded state is multilevel; the patched netlist no longer coarsens"},
		{"coarsening reshaped", grown, ml, mlRecorded, grownDirty,
			"coarsening reshaped under the edit; no local coarse diff exists"},
		{"ordering cap changed", small, capped, find(base, capped), trimDirty,
			"effective ordering cap changed (3000 -> 2997)"},
		{"dirty region past IncrementalFallback", base, opt, recorded, spread,
			"dirty region spans 26.7% of cells (fallback threshold 25%)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFinder(tc.nl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.FindIncremental(ctx, tc.opt, tc.prev, tc.dirty)
			if err != nil {
				t.Fatal(err)
			}
			if st := got.Incremental; st == nil || !st.FullFallback || st.FallbackReason != tc.want {
				t.Fatalf("incremental stats = %+v, want a full fallback because %q", st, tc.want)
			}
			plain := tc.opt
			plain.RecordIncremental = false
			sameResult(t, find(tc.nl, plain), got)
		})
	}
}

// TestSchedRetainsNoSeedRecords: a recorded run's Result.Sched must not
// keep the run's seed records reachable once the Result and its
// IncrState are gone — a serving cache holds Sched long after its
// bounded state cache evicted the state.
func TestSchedRetainsNoSeedRecords(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 11)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var rec weak.Pointer[seedRecord]
	for _, r := range res.IncrState.seeds {
		if r != nil {
			rec = weak.Make(r)
			break
		}
	}
	sched := res.Sched
	runtime.GC()
	if rec.Value() == nil {
		t.Fatal("a live Result lost its seed records")
	}
	runtime.KeepAlive(res)
	runtime.GC()
	runtime.GC()
	if rec.Value() != nil {
		t.Error("Result.Sched keeps the run's seed records reachable")
	}
	runtime.KeepAlive(sched)
}

// TestRecordedStateBytes: a recorded run's state costs 8 bytes per
// prefix of every recorded growth (the member id and the prefix's cut;
// Phase II derives pin totals from the netlist), plus each footprint
// bitset and each outcome candidate — nothing else.
func TestRecordedStateBytes(t *testing.T) {
	rg, opt := incrWorkload(t, 6000, 400, 3)
	res, err := Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	var want, ordBytes int64
	seeds, growths := 0, 0
	for _, r := range res.IncrState.seeds {
		if r == nil {
			continue
		}
		seeds++
		want += int64(r.foot.Capacity()) / 8
		for i := range r.grows {
			ordBytes += 8 * int64(r.grows[i].ord.Len())
			growths++
		}
		if c := r.out.cand; c != nil {
			want += int64(cap(c.Members)) * 4
		}
	}
	if growths <= seeds {
		t.Fatalf("%d growths over %d seeds; want refinement re-growths recorded too", growths, seeds)
	}
	if got := IncrementalStatesMemory(res.IncrState); got != want+ordBytes {
		t.Errorf("IncrementalStatesMemory = %d; want %d (%d in %d recorded orderings)", got, want+ordBytes, ordBytes, growths)
	}
}

// TestMultilevelMatrixComposes: FindIncremental accepts Levels > 1
// and reproduces Find's multilevel output exactly.
func TestMultilevelMatrixComposes(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 13)
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ml := opt
	ml.Levels = 3
	ml.RecordIncremental = false

	want, err := f.Find(ctx, ml)
	if err != nil {
		t.Fatal(err)
	}

	// Incremental multilevel without recorded state falls back to a
	// full multilevel run — same output, annotated as a fallback.
	incr, err := f.FindIncremental(ctx, ml, nil, nil)
	if err != nil {
		t.Fatalf("FindIncremental multilevel: %v", err)
	}
	if incr.Incremental == nil || !incr.Incremental.FullFallback {
		t.Error("incremental multilevel without prior state should report a full fallback")
	}
	incr.Incremental = nil
	sameResult(t, want, incr)
}

// TestMultilevelIncrementalReplay: a recorded multilevel run can be
// resumed after an edit, and the incremental output equals a full
// multilevel run on the patched netlist.
func TestMultilevelIncrementalReplay(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 13)
	ctx := context.Background()
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ml := opt
	ml.Levels = 3
	ml.RecordIncremental = true

	prev, err := f.Find(ctx, ml)
	if err != nil {
		t.Fatal(err)
	}
	if prev.IncrState == nil {
		t.Fatal("recorded multilevel run carries no IncrState")
	}
	if prev.IncrState.coarseNl == nil {
		t.Fatal("multilevel IncrState should carry the coarse netlist")
	}

	// A pin-preserving rewire of one net.
	d := &netlist.Delta{}
	n := netlist.NetID(7)
	pins := append([]netlist.CellID(nil), rg.Netlist.NetPins(n)...)
	pins[0] = (pins[0] + 1) % netlist.CellID(rg.Netlist.NumCells())
	d.SetNets = append(d.SetNets, netlist.NetEdit{Net: n, Cells: pins})
	patched, eff, err := d.Apply(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := f2.FindIncremental(ctx, ml, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := incr.Incremental; st == nil || st.FullFallback || st.ReusedSeeds == 0 {
		t.Fatalf("incremental multilevel run replayed nothing: %+v", st)
	}
	mlFull := ml
	mlFull.RecordIncremental = false
	full, err := f2.Find(ctx, mlFull)
	if err != nil {
		t.Fatal(err)
	}
	incr.Incremental = nil
	sameResult(t, full, incr)
}

// TestRecordingDoesNotChangeResults locks the capture path's
// transparency: a recorded run's visible output is bit-identical to an
// unrecorded one.
func TestRecordingDoesNotChangeResults(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 17)
	ctx := context.Background()
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := f.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	plain := opt
	plain.RecordIncremental = false
	bare, err := f.Find(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	if bare.IncrState != nil {
		t.Error("unrecorded run carries state")
	}
	sameResult(t, bare, rec)
}

func TestIncrementalKeyStability(t *testing.T) {
	a := DefaultOptions()
	b := DefaultOptions()
	b.Workers = 7
	b.RecordIncremental = true
	b.Progress = func(Progress) {}
	if a.Key() != b.Key() {
		t.Error("run controls changed the key")
	}
	c := DefaultOptions()
	c.RandSeed = 999
	if a.Key() == c.Key() {
		t.Error("RandSeed did not change the key")
	}
}

// TestIncrementalReplaysUnreadOptions: Options.Key ignores exactly what
// the chosen pipeline never reads. A flat recording replays requests
// that differ only in the coarsening fields or in Levels 0 vs 1, a
// multilevel recording with the default coarsening floor replays a
// request that names it, and every field a run reads still changes the
// key.
func TestIncrementalReplaysUnreadOptions(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 13)
	ctx := context.Background()
	f, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	ml := opt
	ml.Levels = 3
	ml.MinCoarseCells = 0
	for _, tc := range []struct {
		name      string
		recorded  Options
		requested func(*Options)
	}{
		{"flat refine_radius 5", opt, func(o *Options) { o.RefineRadius = 5 }},
		{"flat min_coarse_cells 700", opt, func(o *Options) { o.MinCoarseCells = 700 }},
		{"flat levels 0", opt, func(o *Options) { o.Levels = 0 }},
		{"multilevel default floor named", ml, func(o *Options) { o.MinCoarseCells = netlist.DefaultMinCoarseCells }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev, err := f.Find(ctx, tc.recorded)
			if err != nil {
				t.Fatal(err)
			}
			req := tc.recorded
			tc.requested(&req)
			got, err := f.FindIncremental(ctx, req, prev, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st := got.Incremental; st == nil || st.FullFallback || st.RerunSeeds != 0 || st.ReusedSeeds == 0 {
				t.Fatalf("replay of an identical computation did not reuse every seed: %+v", st)
			}
			plain := req
			plain.RecordIncremental = false
			want, err := f.Find(ctx, plain)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, got)
		})
	}

	flat, multi := DefaultOptions(), DefaultOptions()
	multi.Levels = 3
	for _, tc := range []struct {
		name string
		base Options
		read func(*Options)
	}{
		{"seeds", flat, func(o *Options) { o.Seeds++ }},
		{"max_order_len", flat, func(o *Options) { o.MaxOrderLen++ }},
		{"metric", flat, func(o *Options) { o.Metric = MetricNGTLS }},
		{"ordering", flat, func(o *Options) { o.Ordering = OrderBFS }},
		{"min_group_size", flat, func(o *Options) { o.MinGroupSize++ }},
		{"accept_threshold", flat, func(o *Options) { o.AcceptThreshold /= 2 }},
		{"dip_ratio", flat, func(o *Options) { o.DipRatio /= 2 }},
		{"big_net_skip", flat, func(o *Options) { o.BigNetSkip++ }},
		{"refine_seeds with refine on", flat, func(o *Options) { o.RefineSeeds++ }},
		{"prune_overlap_tolerance", flat, func(o *Options) { o.PruneOverlapTolerance *= 2 }},
		{"refine", flat, func(o *Options) { o.Refine = false }},
		{"levels 1 vs 3", flat, func(o *Options) { o.Levels = 3 }},
		{"min_coarse_cells under levels 3", multi, func(o *Options) { o.MinCoarseCells = 700 }},
		{"refine_radius under levels 3", multi, func(o *Options) { o.RefineRadius = 5 }},
		{"rand_seed", flat, func(o *Options) { o.RandSeed++ }},
	} {
		o := tc.base
		tc.read(&o)
		if o.Key() == tc.base.Key() {
			t.Errorf("%s: a field the run reads left the key unchanged", tc.name)
		}
	}
}

// backgroundEdit returns a background net of rg (one with no pin in a
// planted block) and a background cell not on it, both from the high
// end of the id space, away from the blocks.
func backgroundEdit(t *testing.T, rg *generate.RandomGraph) (netlist.NetID, netlist.CellID) {
	t.Helper()
	nl := rg.Netlist
	inBlock := make(map[netlist.CellID]bool)
	for _, b := range rg.Blocks {
		for _, c := range b {
			inBlock[c] = true
		}
	}
	for e := nl.NumNets() - 1; e >= 0; e-- {
		pins := nl.NetPins(netlist.NetID(e))
		if len(pins) < 3 || slices.ContainsFunc(pins, func(c netlist.CellID) bool { return inBlock[c] }) {
			continue
		}
		for c := nl.NumCells() - 1; c >= 0; c-- {
			if id := netlist.CellID(c); !inBlock[id] && !slices.Contains(pins, id) {
				return netlist.NetID(e), id
			}
		}
	}
	t.Fatal("no background net found")
	return 0, 0
}

// replayedOuts runs the seed loop of an incremental run directly, so a
// test can inspect each replayed seed's outcome against its record.
func replayedOuts(t *testing.T, nl *netlist.Netlist, opt Options, prev *Result, dirty []netlist.CellID) []seedOut {
	t.Helper()
	f, err := NewFinder(nl)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := f.pickLevel(&opt)
	if err != nil {
		t.Fatal(err)
	}
	src, reason := lv.replaySource(&opt, prev, dirty)
	if src == nil {
		t.Fatalf("no replay source: %s", reason)
	}
	sr, err := lv.f.runSeeds(context.Background(), lv.opt, lv.f.plan(lv.opt), false, src)
	if err != nil {
		t.Fatal(err)
	}
	return sr.outs
}

// TestSameAGReplayReturnsRecordedOutcome: after a pin-preserving edit
// (A(G) unchanged) every replayed seed returns its recorded outcome
// verbatim — the very candidate set, not a re-evaluated copy — and the
// run still equals Find.
func TestSameAGReplayReturnsRecordedOutcome(t *testing.T) {
	rg, opt := incrWorkload(t, 6000, 400, 3)
	ctx := context.Background()
	f0, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f0.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	e, c := backgroundEdit(t, rg)
	pins := append([]netlist.CellID(nil), rg.Netlist.NetPins(e)...)
	pins[0] = c
	patched, eff, err := (&netlist.Delta{SetNets: []netlist.NetEdit{{Net: e, Cells: pins}}}).Apply(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if patched.AvgPins() != rg.Netlist.AvgPins() {
		t.Fatal("the edit changed A(G)")
	}
	replayed, withCand := 0, 0
	for _, o := range replayedOuts(t, patched, opt, prev, eff.Dirty) {
		if !o.replayed {
			continue
		}
		replayed++
		rec := prev.IncrState.seeds[o.idx]
		if o.cand != rec.out.cand || o.score != rec.out.score || o.trace != rec.out.trace {
			t.Errorf("seed %d: replay did not return the recorded outcome", o.idx)
		}
		if o.cand != nil {
			withCand++
		}
	}
	if replayed == 0 || withCand == 0 {
		t.Fatalf("%d seeds replayed, %d with a candidate; the test pins nothing", replayed, withCand)
	}
	f, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := f.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	plain := opt
	plain.RecordIncremental = false
	full, err := f.Find(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, incr)
}

// TestBufferInsertionReplays: inserting a buffer — one new cell taking
// over half a background net's sinks through one new net — changes
// A(G) and the cell count, yet seeds away from the edit still replay,
// re-scored through the live pipeline, and the run equals Find.
func TestBufferInsertionReplays(t *testing.T) {
	rg, opt := incrWorkload(t, 6000, 400, 3)
	ctx := context.Background()
	f0, err := NewFinder(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := f0.Find(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := backgroundEdit(t, rg)
	pins := rg.Netlist.NetPins(e)
	buf := netlist.CellID(rg.Netlist.NumCells())
	d := &netlist.Delta{
		AddCells: []netlist.NewCell{{Name: "buf"}},
		SetNets:  []netlist.NetEdit{{Net: e, Cells: append(slices.Clone(pins[:len(pins)/2]), buf)}},
		AddNets:  []netlist.NewNet{{Name: "buf_out", Cells: append([]netlist.CellID{buf}, pins[len(pins)/2:]...)}},
	}
	patched, eff, err := d.Apply(rg.Netlist)
	if err != nil {
		t.Fatal(err)
	}
	if patched.AvgPins() == rg.Netlist.AvgPins() {
		t.Fatal("the buffer insertion kept A(G)")
	}
	f, err := NewFinder(patched)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := f.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if st := incr.Incremental; st == nil || st.FullFallback || st.ReusedSeeds == 0 {
		t.Fatalf("buffer insertion replayed nothing: %+v", st)
	}
	plain := opt
	plain.RecordIncremental = false
	full, err := f.Find(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, incr)
}

// TestReplayDivergesUnderNewAG: engines whose A(G) is scaled stand in
// for edits that move A(G) without touching any recorded read set.
// Every seed is then clean and re-decides extraction on its recorded
// growths; on these hierarchical netlists some extractions move, so
// their refinement draws cells the recording never grew from, and
// those seeds must diverge and re-grow live. Each run must equal Find
// under the same A(G).
func TestReplayDivergesUnderNewAG(t *testing.T) {
	ctx := context.Background()
	reused, diverged := 0, 0
	for _, seed := range []uint64{1, 2} {
		nl, err := generate.NewHierarchical(generate.HierSpec{Cells: 4096, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Seeds = 24
		opt.MaxOrderLen = 800
		opt.RecordIncremental = true
		plain := opt
		plain.RecordIncremental = false
		f0, err := NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := f0.Find(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{0.85, 0.9, 0.95, 1.05} {
			f, err := NewFinder(nl)
			if err != nil {
				t.Fatal(err)
			}
			f.aG *= scale
			incr, err := f.FindIncremental(ctx, opt, prev, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := f.Find(ctx, plain)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, full, incr)
			reused += incr.Incremental.ReusedSeeds
			diverged += incr.Incremental.RerunSeeds
		}
	}
	if reused == 0 || diverged == 0 {
		t.Fatalf("%d seeds re-scored and %d diverged; both must occur", reused, diverged)
	}
}

// TestGrowFromReplaysOnlyMatchingStarts pins the replay's growth
// source: recorded growth k comes back only when asked for from the
// cell it started at, and any other start or a k past the recording
// reports divergence.
func TestGrowFromReplaysOnlyMatchingStarts(t *testing.T) {
	rg, opt := incrWorkload(t, 3000, 200, 11)
	res, err := Find(rg.Netlist, opt)
	if err != nil {
		t.Fatal(err)
	}
	var rec *seedRecord
	for _, r := range res.IncrState.seeds {
		if r != nil && len(r.grows) > 1 {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatal("no recorded seed refined")
	}
	p := seedPipe{from: rec}
	for k, g := range rec.grows {
		if ord, rent, ok := p.growFrom(g.start, k); !ok || ord != &rec.grows[k].ord || rent != g.rent {
			t.Errorf("growth %d from its own start did not replay", k)
		}
		if _, _, ok := p.growFrom(g.start+1, k); ok {
			t.Errorf("growth %d replayed from another start", k)
		}
	}
	if _, _, ok := p.growFrom(rec.seed, len(rec.grows)); ok {
		t.Error("a growth past the recording replayed")
	}
}
