package core

import (
	"fmt"
	"testing"

	"tanglefind/internal/ds"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// refGrower is the pre-overhaul Phase I loop, kept as the reference
// grower.grow must stay bit-identical to. It is deliberately plain:
// per-net inside-pin counts (refTracker), a binary max-heap (refHeap;
// production's is 4-ary), a full NetPins walk with member skip per
// incident net, per-term float divides, one uncoalesced heap push per
// (net, cell) gain update, and a DeltaCut re-check on every weighted or
// min-cut pop. It owns all of its state — frontier entries, the touched and
// examined lists, its tracker and its heap — so it shares no
// bookkeeping with the grower it checks.
type refGrower struct {
	nl   *netlist.Netlist
	opt  *Options
	t    *refTracker
	heap refHeap
	gain []float64
	tie  []int32
	seen []bool // touched this growth
	exam []bool // on the examined list this growth
	// touched and examined mirror grower.touched and grower.examined:
	// first-touch discovery order, and the cells whose pin runs a pop
	// re-verified, each at most once.
	touched  []netlist.CellID
	examined []netlist.CellID
	ord      OrderingStats
	// pins[k-1] is the reference tracker's pin total after the k-th
	// absorb, which the production ordering leaves to Phase II.
	pins []int64
}

func newRefGrower(nl *netlist.Netlist, opt *Options) *refGrower {
	n := nl.NumCells()
	return &refGrower{
		nl:   nl,
		opt:  opt,
		t:    newRefTracker(nl),
		gain: make([]float64, n),
		tie:  make([]int32, n),
		seen: make([]bool, n),
		exam: make([]bool, n),
	}
}

func (r *refGrower) grow(seed netlist.CellID, maxLen int) *OrderingStats {
	for _, c := range r.touched {
		r.seen[c] = false
		r.exam[c] = false
	}
	r.touched = r.touched[:0]
	r.examined = r.examined[:0]
	r.t.reset()
	r.heap.entries = r.heap.entries[:0]
	r.ord = OrderingStats{Members: r.ord.Members[:0], Cuts: r.ord.Cuts[:0]}
	r.pins = r.pins[:0]
	r.addCell(seed)
	for len(r.t.members) < min(maxLen, r.nl.NumCells()) {
		v, ok := r.popBest()
		if !ok {
			break
		}
		r.addCell(v)
	}
	return &r.ord
}

func (r *refGrower) popBest() (netlist.CellID, bool) {
	for {
		v, gain, tie, ok := r.heap.pop()
		if !ok {
			return 0, false
		}
		if r.t.in.Has(int(v)) || gain != r.gain[v] {
			continue // absorbed, or a stale gain with a fresher entry queued
		}
		if r.opt.Ordering == OrderBFS {
			return v, true // tie is the discovery index, always valid
		}
		if !r.exam[v] {
			r.exam[v] = true
			r.examined = append(r.examined, v)
		}
		if fresh := int32(r.t.deltaCut(v)); fresh != tie {
			// The cut delta drifted since this entry was pushed;
			// requeue at the exact value and keep popping.
			r.tie[v] = fresh
			r.heap.push(v, gain, fresh)
			continue
		}
		return v, true
	}
}

func (r *refGrower) addCell(v netlist.CellID) {
	if !r.seen[v] {
		r.seen[v] = true
		r.touched = append(r.touched, v)
	}
	r.t.add(v)
	r.ord.Members = append(r.ord.Members, v)
	r.ord.Cuts = append(r.ord.Cuts, int32(r.t.cut))
	r.pins = append(r.pins, int64(r.t.pins))
	for _, e := range r.nl.CellPins(v) {
		p := int(r.t.pinsIn[e]) // pins inside after adding v
		lambda := r.nl.NetSize(e) - p
		if lambda == 0 {
			continue
		}
		if r.opt.BigNetSkip > 0 && lambda >= r.opt.BigNetSkip {
			continue
		}
		var delta float64
		if r.opt.Ordering == OrderWeighted {
			delta = 1.0 / float64(lambda+1)
			if p > 1 {
				delta -= 1.0 / float64(lambda+2)
			}
		}
		for _, w := range r.nl.NetPins(e) {
			if r.t.in.Has(int(w)) {
				continue
			}
			if !r.seen[w] {
				r.seen[w] = true
				r.touched = append(r.touched, w)
				r.gain[w] = 0
				r.tie[w] = 0
				switch r.opt.Ordering {
				case OrderBFS:
					r.tie[w] = int32(len(r.touched))
					r.heap.push(w, 0, r.tie[w])
				case OrderMinCut:
					r.tie[w] = int32(r.t.deltaCut(w))
					r.heap.push(w, 0, r.tie[w])
				}
			}
			if r.opt.Ordering == OrderWeighted {
				r.gain[w] += delta
				r.heap.push(w, r.gain[w], r.tie[w])
			}
		}
	}
}

// refTracker is the pre-overhaul group tracker: per-net inside-pin
// counts, with every cut transition decided against NetSize.
type refTracker struct {
	nl      *netlist.Netlist
	in      *ds.Bitset
	pinsIn  []int32
	nets    []netlist.NetID // nets with pinsIn > 0, for reset
	members []netlist.CellID
	cut     int
	pins    int
}

func newRefTracker(nl *netlist.Netlist) *refTracker {
	return &refTracker{nl: nl, in: ds.NewBitset(nl.NumCells()), pinsIn: make([]int32, nl.NumNets())}
}

func (t *refTracker) reset() {
	for _, n := range t.nets {
		t.pinsIn[n] = 0
	}
	t.nets = t.nets[:0]
	t.members = t.members[:0]
	t.in.Clear()
	t.cut, t.pins = 0, 0
}

func (t *refTracker) add(c netlist.CellID) {
	t.in.Add(int(c))
	t.members = append(t.members, c)
	t.pins += len(t.nl.CellPins(c))
	for _, n := range t.nl.CellPins(c) {
		sz := t.nl.NetSize(n)
		if t.pinsIn[n] == 0 {
			t.nets = append(t.nets, n)
			if sz > 1 {
				t.cut++ // net becomes externally connected
			}
		}
		t.pinsIn[n]++
		if int(t.pinsIn[n]) == sz && sz > 1 {
			t.cut-- // net became fully internal
		}
	}
}

func (t *refTracker) deltaCut(c netlist.CellID) int {
	d := 0
	for _, n := range t.nl.CellPins(c) {
		sz := t.nl.NetSize(n)
		if sz <= 1 {
			continue
		}
		switch int(t.pinsIn[n]) {
		case 0:
			d++
		case sz - 1:
			d--
		}
	}
	return d
}

// refHeap is a lazy binary max-heap under the frontier's total order:
// gain descending, then tie ascending, then cell id ascending.
type refHeap struct{ entries []refEntry }

type refEntry struct {
	gain float64
	tie  int32
	key  netlist.CellID
}

func (h *refHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.key < b.key
}

func (h *refHeap) push(key netlist.CellID, gain float64, tie int32) {
	h.entries = append(h.entries, refEntry{gain, tie, key})
	for i := len(h.entries) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

func (h *refHeap) pop() (netlist.CellID, float64, int32, bool) {
	if len(h.entries) == 0 {
		return 0, 0, 0, false
	}
	top := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			break
		}
		h.entries[i], h.entries[c] = h.entries[c], h.entries[i]
		i = c
	}
	return top.key, top.gain, top.tie, true
}

// withWideNets returns rg's netlist plus the wide nets real designs
// carry: 16-48-pin buses inside every planted block and in the
// background (about 0.27 bus pins per cell), and eight global nets of
// Cells/64 pins modelling clock, reset and scan distribution.
func withWideNets(t testing.TB, rg *generate.RandomGraph) *netlist.Netlist {
	t.Helper()
	nl := rg.Netlist
	n := nl.NumCells()
	var b netlist.Builder
	b.AddCells(n)
	for e := range nl.NumNets() {
		b.AddNet("", nl.NetPins(netlist.NetID(e))...)
	}
	planted := make([]bool, n)
	for _, blk := range rg.Blocks {
		for _, c := range blk {
			planted[c] = true
		}
	}
	var background, all []netlist.CellID
	for c := range n {
		all = append(all, netlist.CellID(c))
		if !planted[c] {
			background = append(background, netlist.CellID(c))
		}
	}
	rng := ds.NewRNG(0x77de)
	pick := func(pool []netlist.CellID, k int) []netlist.CellID {
		out := make([]netlist.CellID, k)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	buses := func(pool []netlist.CellID) {
		for left := n * 27 / 100 * len(pool) / n; left > 0; {
			k := 16 + rng.Intn(33)
			b.AddNet("", pick(pool, k)...)
			left -= k
		}
	}
	for _, blk := range rg.Blocks {
		buses(blk)
	}
	buses(background)
	for range 8 {
		b.AddNet("", pick(all, n/64)...)
	}
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return wide
}

// refInput is one netlist the differential grows over.
type refInput struct {
	name string
	nl   *netlist.Netlist
}

// referenceInputs are a planted-block random graph of 2-6-pin nets,
// the same graph with wide nets added, and every coarse level of a
// Levels-3 hierarchy of each.
func referenceInputs(t *testing.T) []refInput {
	t.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  6000,
		Blocks: []generate.BlockSpec{{Size: 400}, {Size: 250}},
		Seed:   31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var inputs []refInput
	for _, base := range []refInput{{"blocks", rg.Netlist}, {"widenet", withWideNets(t, rg)}} {
		inputs = append(inputs, base)
		h, err := netlist.BuildHierarchy(base.nl, netlist.CoarsenOptions{Levels: 3, MinCells: 512})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumLevels() < 3 {
			t.Fatalf("%s: hierarchy has %d levels, want 3", base.name, h.NumLevels())
		}
		for l := 1; l < h.NumLevels(); l++ {
			inputs = append(inputs, refInput{fmt.Sprintf("%s_L%d", base.name, l), h.Level(l)})
		}
	}
	return inputs
}

// TestGrowMatchesReference is the ordering differential: grower.grow
// against the reference grower at tolerance 0 — member order, per-prefix
// cuts, the reference tracker's per-prefix pins against the running
// CellDegree sum Phase II derives them as, and the touched and examined
// lists incremental footprints are built from — over every ordering,
// with the K-factor skip on and off, on narrow-net, wide-net and
// coarse-level inputs.
// Flat, multilevel and incremental runs all grow through grow, so
// this one test pins Phase I for every pipeline. CI's ordering
// differential shard runs it under -race.
func TestGrowMatchesReference(t *testing.T) {
	growths := 0
	for _, in := range referenceInputs(t) {
		f, err := NewFinder(in.nl)
		if err != nil {
			t.Fatal(err)
		}
		for _, ord := range []Ordering{OrderWeighted, OrderBFS, OrderMinCut} {
			for _, skip := range []int{20, 0} {
				t.Run(fmt.Sprintf("%s/%v/skip%d", in.name, ord, skip), func(t *testing.T) {
					opt := DefaultOptions()
					opt.Ordering = ord
					opt.BigNetSkip = skip
					opt.Seeds = 24
					opt.MaxOrderLen = 800
					ref := newRefGrower(in.nl, &opt)
					ws := f.acquire(&opt)
					defer f.release(ws)
					for _, seed := range f.plan(&opt).ids {
						want := ref.grow(seed, opt.MaxOrderLen)
						got := ws.gr.grow(seed, opt.MaxOrderLen)
						growths++
						requireSame(t, seed, "members", got.Members, want.Members)
						requireSame(t, seed, "cuts", got.Cuts, want.Cuts)
						requireSame(t, seed, "pins", prefixPins(in.nl, got), ref.pins)
						requireSame(t, seed, "touched cells", ws.gr.touched, ref.touched)
						requireSame(t, seed, "examined cells", ws.gr.examined, ref.examined)
					}
				})
			}
		}
	}
	t.Logf("%d growths matched the reference", growths)
}

// prefixPins returns the per-prefix pin totals of an ordering grown on
// nl as Phase II derives them: the running sum of member degrees.
func prefixPins(nl *netlist.Netlist, o *OrderingStats) []int64 {
	out := make([]int64, o.Len())
	sum := int64(0)
	for i, c := range o.Members {
		sum += int64(nl.CellDegree(c))
		out[i] = sum
	}
	return out
}

// requireSame fails the test at the first index where got and want
// differ, or when one is a proper prefix of the other.
func requireSame[T comparable](t *testing.T, seed netlist.CellID, what string, got, want []T) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("seed %d: %s differ from the reference at index %d: %v vs %v", seed, what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("seed %d: %d %s, the reference has %d", seed, len(got), what, len(want))
	}
}
