// Package ds provides the small data structures shared by the rest of
// tanglefind: a fixed-capacity bitset, an indexed lazy priority queue,
// a disjoint-set forest and a deterministic splitmix64 RNG.
//
// Everything here is allocation-conscious: the tangled-logic finder runs
// many thousands of group-grow steps over netlists with up to ~10^6
// cells, so the hot structures use flat slices indexed by int32 cell ids.
package ds

import "math/bits"

// Bitset is a fixed-capacity set of non-negative integers.
// The zero value is an empty set of capacity 0; use NewBitset or Resize.
type Bitset struct {
	words []uint64
	n     int // number of set bits, maintained incrementally
}

// NewBitset returns an empty bitset able to hold values in [0, capacity).
func NewBitset(capacity int) *Bitset {
	return &Bitset{words: make([]uint64, (capacity+63)/64)}
}

// Resize empties the set and sets its capacity to exactly capacity
// values, reusing the existing storage when it is large enough — so a
// later Clear costs O(capacity), not O(the largest capacity ever held).
func (b *Bitset) Resize(capacity int) {
	need := (capacity + 63) / 64
	if need > cap(b.words) {
		b.words = make([]uint64, need)
	} else {
		b.words = b.words[:need]
		clear(b.words)
	}
	b.n = 0
}

// Capacity reports the number of values the bitset can hold.
func (b *Bitset) Capacity() int { return len(b.words) * 64 }

// Bytes reports the bitset's retained storage, including capacity
// beyond Capacity that Resize kept for reuse.
func (b *Bitset) Bytes() int64 { return int64(cap(b.words)) * 8 }

// Add inserts v. It reports whether v was newly added.
func (b *Bitset) Add(v int) bool {
	w, m := v>>6, uint64(1)<<(uint(v)&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.n++
	return true
}

// Remove deletes v. It reports whether v was present.
func (b *Bitset) Remove(v int) bool {
	w, m := v>>6, uint64(1)<<(uint(v)&63)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.n--
	return true
}

// Has reports whether v is in the set.
func (b *Bitset) Has(v int) bool {
	w := v >> 6
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(uint64(1)<<(uint(v)&63)) != 0
}

// Len returns the number of elements in the set.
func (b *Bitset) Len() int { return b.n }

// Clear empties the set, retaining capacity.
func (b *Bitset) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = 0
}

// ForEach calls f for every element in ascending order.
func (b *Bitset) ForEach(f func(v int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			f(wi*64 + tz)
			w &= w - 1
		}
	}
}

// Slice returns the elements in ascending order.
func (b *Bitset) Slice() []int {
	out := make([]int, 0, b.n)
	b.ForEach(func(v int) { out = append(out, v) })
	return out
}

// IntersectsWith reports whether b and o share any element.
func (b *Bitset) IntersectsWith(o *Bitset) bool {
	n := min(len(b.words), len(o.words))
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}
