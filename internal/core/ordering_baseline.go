package core

import (
	"fmt"

	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// baselineTracker is the pre-overhaul group tracker, retained verbatim
// so the baseline engine's absorb loop pays exactly the pre-overhaul
// memory traffic: per-net inside-pin counts in their own array, with
// Add and DeltaCut loading both NetSize (the CSR offset array) and
// pinsIn per net — the two random loads per net that the overhauled
// tracker's fused state word collapsed into one. Only the baseline
// growth paths use it; it is allocated lazily on the first baseline
// growth so ordinary engines never pay its per-net array.
type baselineTracker struct {
	nl      *netlist.Netlist
	in      *ds.Bitset
	pinsIn  []int32 // per net: pins inside the group
	touched []netlist.NetID
	members []netlist.CellID
	cut     int
	pins    int
}

func newBaselineTracker(nl *netlist.Netlist) *baselineTracker {
	return &baselineTracker{
		nl:     nl,
		in:     ds.NewBitset(nl.NumCells()),
		pinsIn: make([]int32, nl.NumNets()),
	}
}

func (t *baselineTracker) Reset() {
	for _, n := range t.touched {
		t.pinsIn[n] = 0
	}
	t.touched = t.touched[:0]
	t.members = t.members[:0]
	t.in.Clear()
	t.cut = 0
	t.pins = 0
}

func (t *baselineTracker) MemoryFootprint() int64 {
	return int64(t.in.Capacity())/8 + int64(cap(t.pinsIn))*4 +
		int64(cap(t.touched))*4 + int64(cap(t.members))*4
}

func (t *baselineTracker) Size() int                     { return len(t.members) }
func (t *baselineTracker) Cut() int                      { return t.cut }
func (t *baselineTracker) Pins() int                     { return t.pins }
func (t *baselineTracker) Has(c int) bool                { return t.in.Has(c) }
func (t *baselineTracker) Members() []netlist.CellID     { return t.members }
func (t *baselineTracker) NetPinsIn(n netlist.NetID) int { return int(t.pinsIn[n]) }

func (t *baselineTracker) Add(c netlist.CellID) {
	if !t.in.Add(int(c)) {
		panic(fmt.Sprintf("core: baseline cell %d added twice", c))
	}
	nets := t.nl.CellPins(c)
	t.pins += len(nets)
	t.members = append(t.members, c)
	for _, n := range nets {
		sz := t.nl.NetSize(n)
		p := t.pinsIn[n]
		if p == 0 {
			t.touched = append(t.touched, n)
			if sz > 1 {
				t.cut++ // net becomes externally connected
			}
		}
		p++
		t.pinsIn[n] = p
		if int(p) == sz && sz > 1 {
			t.cut-- // net became fully internal
		}
	}
}

func (t *baselineTracker) DeltaCut(c netlist.CellID) int {
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

// baselineHeap is the pre-overhaul frontier queue, retained verbatim
// alongside addCellBaseline: a lazy binary max-heap with no insertion
// buffer. The baseline engine runs on it so the hotpath experiment's
// "before" timings measure the pre-overhaul queue, not the overhauled
// ds.GainHeap.
type baselineHeap struct {
	entries []baselineEntry
}

type baselineEntry struct {
	gain float64
	tie  int32
	key  int32
}

func (h *baselineHeap) Reset() { h.entries = h.entries[:0] }

func (h *baselineHeap) MemoryFootprint() int64 { return int64(cap(h.entries)) * 16 }

func (h *baselineHeap) Push(key int32, gain float64, tie int32) {
	h.entries = append(h.entries, baselineEntry{gain, tie, key})
	h.up(len(h.entries) - 1)
}

func (h *baselineHeap) Pop() (key int32, gain float64, tie int32, ok bool) {
	if len(h.entries) == 0 {
		return 0, 0, 0, false
	}
	e := h.entries[0]
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	if last > 0 {
		h.down(0)
	}
	return e.key, e.gain, e.tie, true
}

func (h *baselineHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.key < b.key
}

func (h *baselineHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

func (h *baselineHeap) down(i int) {
	n := len(h.entries)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h.less(r, l) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.entries[i], h.entries[c] = h.entries[c], h.entries[i]
		i = c
	}
}

// growBaseline is the pre-overhaul Phase I loop, dispatched to by grow
// when the engine runs in baseline mode. It mirrors grow exactly but
// reads group state from the retained baselineTracker, so the timed
// "before" engine carries the pre-overhaul tracker's memory traffic as
// well as its heap and walk behavior.
func (g *grower) growBaseline(seed netlist.CellID, maxLen int) *OrderingStats {
	if g.btracker == nil {
		g.btracker = newBaselineTracker(g.nl)
	}
	t := g.btracker
	t.Reset()
	g.bheap.Reset()
	g.bumpEpoch()
	g.touched = g.touched[:0]
	g.examined = g.examined[:0]
	if maxLen > g.nl.NumCells() {
		maxLen = g.nl.NumCells()
	}
	out := &g.ord
	out.Members = out.Members[:0]
	out.Cuts = out.Cuts[:0]
	out.Pins = out.Pins[:0]
	record := func() {
		out.Members = append(out.Members, t.Members()[t.Size()-1])
		out.Cuts = append(out.Cuts, int32(t.Cut()))
		out.Pins = append(out.Pins, int64(t.Pins()))
	}
	g.addCellBaseline(seed)
	record()
	for t.Size() < maxLen {
		v, ok := g.popBestBaseline()
		if !ok {
			break
		}
		g.addCellBaseline(v)
		record()
	}
	return out
}

// popBestBaseline is the pre-overhaul pop path: no uncontested-maximum
// shortcut, every equal-gain pop pays a DeltaCut walk, and requeues
// always round-trip through the heap. Kept verbatim (modulo the
// frontEntry stamp rename and the examined-list dedupe, which is
// shared bookkeeping) as the timing and bit-identity reference.
func (g *grower) popBestBaseline() (netlist.CellID, bool) {
	for {
		v, gain, tie, ok := g.bheap.Pop()
		if !ok {
			return 0, false
		}
		fe := &g.front[v]
		if g.btracker.Has(int(v)) || fe.stamp&epochMask != g.epoch {
			continue // already absorbed
		}
		if gain != fe.gain {
			continue // stale gain; a fresher entry exists
		}
		if g.opt.Ordering == OrderBFS {
			return v, true // tie is the discovery index, always valid
		}
		if fe.stamp&examinedBit == 0 {
			fe.stamp |= examinedBit
			g.examined = append(g.examined, v)
		}
		fresh := int32(g.btracker.DeltaCut(v))
		if fresh != tie {
			// The cut delta drifted since this entry was pushed;
			// requeue at the exact value and keep popping.
			fe.tie = fresh
			g.bheap.Push(v, gain, fresh)
			continue
		}
		return v, true
	}
}

// addCellBaseline is the pre-overhaul absorb loop, kept verbatim
// (modulo the frontEntry stamp rename) as the reference the optimized
// addCell must stay bit-identical to: full NetPins(e) re-walks with
// member skipping, per-net NetSize/NetPinsIn loads off the retained
// tracker, per-term float divides, and one heap push per (net, cell)
// gain update. The hotpath experiment times it as the "before" engine
// and the differential tests grow against it as the golden oracle; it
// is selected per grower via the baseline flag
// (Finder.SetBaselineGrowth).
func (g *grower) addCellBaseline(v netlist.CellID) {
	t := g.btracker
	if g.front[v].stamp&epochMask != g.epoch {
		g.front[v].stamp = g.epoch
		g.touched = append(g.touched, v) // first touch: enters the discovery list
	}
	t.Add(v)
	for _, e := range g.nl.CellPins(v) {
		sz := g.nl.NetSize(e)
		p := t.NetPinsIn(e) // pins inside after adding v
		lambda := sz - p    // pins still outside
		if lambda == 0 {
			continue // fully internal: no frontier contribution left
		}
		if g.opt.BigNetSkip > 0 && lambda >= g.opt.BigNetSkip {
			// The paper's K-factor optimization: weight changes on
			// nets with many outside pins are negligible; skip them.
			continue
		}
		var delta float64
		switch g.opt.Ordering {
		case OrderWeighted:
			wNew := 1.0 / float64(lambda+1)
			if p == 1 {
				delta = wNew // net newly connected to the group
			} else {
				delta = wNew - 1.0/float64(lambda+2)
			}
		case OrderMinCut, OrderBFS:
			delta = 0 // gain unused; frontier membership only
		}
		for _, w := range g.nl.NetPins(e) {
			if t.Has(int(w)) {
				continue
			}
			fe := &g.front[w]
			if fe.stamp&epochMask != g.epoch {
				fe.stamp = g.epoch
				g.touched = append(g.touched, w)
				fe.gain = 0
				switch g.opt.Ordering {
				case OrderBFS:
					// Discovery order: earlier index wins. Encode as
					// constant gain with index tiebreak.
					fe.tie = int32(len(g.touched))
					g.bheap.Push(w, 0, fe.tie)
				case OrderMinCut:
					fe.tie = int32(t.DeltaCut(w))
					g.bheap.Push(w, 0, fe.tie)
				default:
					fe.tie = 0
				}
			}
			switch g.opt.Ordering {
			case OrderWeighted:
				fe.gain += delta
				g.bheap.Push(w, fe.gain, fe.tie)
			case OrderMinCut:
				// Gain stays 0; cut deltas are re-verified at pop.
			}
		}
	}
}
