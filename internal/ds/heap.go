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
// The heap is 4-ary: each sift-down touches one parent and up to four
// children in adjacent array slots, halving the tree depth of the
// binary layout. The comparison order is a total order over entries,
// so the sequence of Pop results is a function of the pushed multiset
// alone — the layout never changes what Pop returns.
type GainHeap struct {
	entries []gainEntry
}

type gainEntry struct {
	gain float64
	tie  int32 // secondary criterion, smaller wins (e.g. cut delta)
	key  int32
}

// heapArity is the fan-out of the heap's implicit tree.
const heapArity = 4

// Len returns the number of queued entries, including stale ones.
func (h *GainHeap) Len() int { return len(h.entries) }

// MemoryFootprint returns the queue's retained bytes (entry capacity,
// whether or not in use) for engine memory accounting.
func (h *GainHeap) MemoryFootprint() int64 {
	return int64(cap(h.entries)) * int64(unsafe.Sizeof(gainEntry{}))
}

// Reset empties the queue, retaining capacity.
func (h *GainHeap) Reset() { h.entries = h.entries[:0] }

// Push queues key with the given gain and tiebreak value.
func (h *GainHeap) Push(key int32, gain float64, tie int32) {
	e := gainEntry{gain, tie, key}
	h.entries = append(h.entries, e)
	i := len(h.entries) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !before(e, h.entries[p]) {
			break
		}
		h.entries[i] = h.entries[p]
		i = p
	}
	h.entries[i] = e
}

// Pop removes and returns the best entry. ok is false when empty.
func (h *GainHeap) Pop() (key int32, gain float64, tie int32, ok bool) {
	n := len(h.entries) - 1
	if n < 0 {
		return 0, 0, 0, false
	}
	top, e := h.entries[0], h.entries[n]
	h.entries = h.entries[:n]
	if n == 0 {
		return top.key, top.gain, top.tie, true
	}
	// Sift the former last entry down from the root: move the best
	// child up into the hole until no child beats the entry.
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best, end := first, min(first+heapArity, n)
		for c := first + 1; c < end; c++ {
			if before(h.entries[c], h.entries[best]) {
				best = c
			}
		}
		if !before(h.entries[best], e) {
			break
		}
		h.entries[i] = h.entries[best]
		i = best
	}
	h.entries[i] = e
	return top.key, top.gain, top.tie, true
}

// TopGain reports the best queued entry's gain without removing it.
// The absorb loop's pop path uses it to skip cut-delta re-verification
// when the popped entry's gain is strictly ahead of every rival: the
// tiebreak cannot influence an uncontested maximum.
func (h *GainHeap) TopGain() (float64, bool) {
	if len(h.entries) == 0 {
		return 0, false
	}
	return h.entries[0].gain, true
}

// StillBest reports whether an entry (gain, tie, key) would pop before
// everything currently queued. The absorb loop uses it after lazily
// re-verifying a popped entry's tiebreak: when the corrected entry
// still beats the queue, requeueing it would only be followed by an
// immediate pop of the very same entry — the answer is already known.
func (h *GainHeap) StillBest(key int32, gain float64, tie int32) bool {
	return len(h.entries) == 0 || !before(h.entries[0], gainEntry{gain, tie, key})
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
