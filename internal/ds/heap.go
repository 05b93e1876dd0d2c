package ds

import "unsafe"

// GainHeap is a lazy max-priority queue over int32 keys ordered by
// (gain descending, tie ascending, key ascending).
//
// It is "lazy": a revision pushes a fresh entry instead of sifting the
// old one, and Pop relies on the caller to discard entries whose
// (gain, tie) no longer match its current values. This is the classic
// pattern for agglomerative growth where a cell's connection weight is
// revised many times before it is ever popped — and it is deliberately
// kept over an indexed decrease-key heap: revisions almost always
// carry small gains that park near the leaves, while stale duplicates
// (strictly below their key's freshest entry, since gains only grow)
// sink to the bottom and are almost never popped. An indexed variant
// was measured slower on the background-dominated workloads that
// matter: position upkeep on every sift plus mid-heap re-sifts cost
// more than the duplicates ever do.
//
// Internally the queue is two-level. Pushes append to a small
// unordered buffer whose best entry is tracked with one comparison per
// push; only when the buffer fills do its entries spill into the main
// heap. Pop serves from whichever side holds the overall best entry.
// The shape fits the absorb loop exactly: each absorbed cell bumps a
// burst of neighbor gains, and the next winner is very often one of
// those fresh bumps — served straight from the L1-resident buffer, no
// sift-down over a multi-megabyte heap array. Entries absorbed from
// the buffer before it spills never touch the main heap at all.
//
// The main heap is 4-ary: each sift-down touches one parent and up to
// four children in adjacent array slots, halving the tree depth of the
// binary layout. The comparison order is a total order over entries,
// so the sequence of Pop results is a function of the pushed multiset
// alone — buffering, spill timing and layout never change what Pop
// returns.
type GainHeap struct {
	entries []gainEntry
	buf     []gainEntry
	best    int // index of the buffer's best entry, -1 when empty
}

type gainEntry struct {
	gain float64
	tie  int32 // secondary criterion, smaller wins (e.g. cut delta)
	key  int32
}

// heapArity is the fan-out of the main heap's implicit tree.
const heapArity = 4

// heapBufCap bounds the insertion buffer: 1KB of entries, small enough
// that the rescan after a buffer pop stays in L1, large enough to
// absorb a typical burst of gain bumps between pops.
const heapBufCap = 64

// Len returns the number of queued entries, including stale ones.
func (h *GainHeap) Len() int { return len(h.entries) + len(h.buf) }

// MemoryFootprint returns the queue's retained bytes (entry and buffer
// capacity, whether or not in use) for engine memory accounting.
func (h *GainHeap) MemoryFootprint() int64 {
	return int64(cap(h.entries)+cap(h.buf)) * int64(unsafe.Sizeof(gainEntry{}))
}

// Reset empties the queue, retaining capacity.
func (h *GainHeap) Reset() {
	h.entries = h.entries[:0]
	h.buf = h.buf[:0]
	h.best = -1
}

// Push queues key with the given gain and tiebreak value.
func (h *GainHeap) Push(key int32, gain float64, tie int32) {
	if len(h.buf) == heapBufCap {
		h.spill()
	}
	e := gainEntry{gain, tie, key}
	h.buf = append(h.buf, e)
	if h.best < 0 || before(e, h.buf[h.best]) {
		h.best = len(h.buf) - 1
	}
}

// PushHinted queues like Push, but first checks whether buffer slot
// hint still holds an entry for the same key — the slot a previous
// PushHinted for that key returned — and if so overwrites it in place
// instead of appending. It returns the slot the entry now occupies,
// for the caller to remember as the next hint.
//
// Callers may only coalesce entries whose priority never worsens
// between pushes (the absorb loop qualifies: a cell's gain only grows
// within a growth), so an in-place overwrite can only improve the
// slot's entry and the tracked best stays valid. The overwritten entry
// is one the caller's pop loop would have discarded as stale with no
// side effects, so coalescing never changes the pop sequence — it just
// keeps superseded revisions from ever reaching the main heap.
//
// Hints are best-effort: a stale hint (the slot was popped, spilled or
// reused since) simply fails the key check and the entry is appended.
// Callers need not invalidate hints, only route them back in.
func (h *GainHeap) PushHinted(key int32, gain float64, tie int32, hint uint32) uint32 {
	if int(hint) < len(h.buf) {
		if e := &h.buf[hint]; e.key == key {
			e.gain, e.tie = gain, tie
			if h.best != int(hint) && before(*e, h.buf[h.best]) {
				h.best = int(hint)
			}
			return hint
		}
	}
	if len(h.buf) == heapBufCap {
		h.spill()
	}
	h.buf = append(h.buf, gainEntry{gain, tie, key})
	slot := len(h.buf) - 1
	if h.best < 0 || before(h.buf[slot], h.buf[h.best]) {
		h.best = slot
	}
	return uint32(slot)
}

// spill moves every buffered entry into the main heap.
func (h *GainHeap) spill() {
	for _, e := range h.buf {
		h.entries = append(h.entries, e)
		h.up(len(h.entries) - 1)
	}
	h.buf = h.buf[:0]
	h.best = -1
}

// Pop removes and returns the best entry. ok is false when empty.
func (h *GainHeap) Pop() (key int32, gain float64, tie int32, ok bool) {
	if h.best >= 0 {
		if len(h.entries) == 0 || before(h.buf[h.best], h.entries[0]) {
			e := h.buf[h.best]
			last := len(h.buf) - 1
			h.buf[h.best] = h.buf[last]
			h.buf = h.buf[:last]
			h.rescan()
			return e.key, e.gain, e.tie, true
		}
	}
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

// rescan recomputes the buffer's best index after a buffer pop.
func (h *GainHeap) rescan() {
	h.best = -1
	for i := range h.buf {
		if h.best < 0 || before(h.buf[i], h.buf[h.best]) {
			h.best = i
		}
	}
}

// TopGain reports the best queued entry's gain without removing it.
// The absorb loop's pop path uses it to skip cut-delta re-verification
// when the popped entry's gain is strictly ahead of every rival: the
// tiebreak cannot influence an uncontested maximum.
func (h *GainHeap) TopGain() (float64, bool) {
	switch {
	case h.best < 0 && len(h.entries) == 0:
		return 0, false
	case h.best < 0:
		return h.entries[0].gain, true
	case len(h.entries) == 0 || h.buf[h.best].gain >= h.entries[0].gain:
		return h.buf[h.best].gain, true
	default:
		return h.entries[0].gain, true
	}
}

// StillBest reports whether an entry (gain, tie, key) would pop before
// everything currently queued. The absorb loop uses it after lazily
// re-verifying a popped entry's tiebreak: when the corrected entry
// still beats the queue, requeueing it would only be followed by an
// immediate pop of the very same entry — the answer is already known.
func (h *GainHeap) StillBest(key int32, gain float64, tie int32) bool {
	cand := gainEntry{gain, tie, key}
	if h.best >= 0 && before(h.buf[h.best], cand) {
		return false
	}
	if len(h.entries) > 0 && before(h.entries[0], cand) {
		return false
	}
	return true
}

// before is the queue's total order over entries.
func before(a, b gainEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.key < b.key
}

func (h *GainHeap) less(i, j int) bool { return before(h.entries[i], h.entries[j]) }

func (h *GainHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !h.less(i, p) {
			break
		}
		h.entries[i], h.entries[p] = h.entries[p], h.entries[i]
		i = p
	}
}

func (h *GainHeap) down(i int) {
	n := len(h.entries)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		best := i
		for c := first; c < end; c++ {
			if h.less(c, best) {
				best = c
			}
		}
		if best == i {
			return
		}
		h.entries[i], h.entries[best] = h.entries[best], h.entries[i]
		i = best
	}
}
