package ds

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(200)
	if b.Len() != 0 || b.Has(5) {
		t.Fatal("new bitset not empty")
	}
	if !b.Add(5) || b.Add(5) {
		t.Fatal("Add return values wrong")
	}
	if !b.Has(5) || b.Len() != 1 {
		t.Fatal("Add failed")
	}
	if !b.Remove(5) || b.Remove(5) {
		t.Fatal("Remove return values wrong")
	}
	if b.Has(5) || b.Len() != 0 {
		t.Fatal("Remove failed")
	}
	b.Add(0)
	b.Add(63)
	b.Add(64)
	b.Add(199)
	if got := b.Slice(); len(got) != 4 || got[0] != 0 || got[3] != 199 {
		t.Fatalf("Slice = %v", got)
	}
	b.Clear()
	if b.Len() != 0 || b.Has(63) {
		t.Fatal("Clear failed")
	}
}

func TestBitsetHasOutOfRange(t *testing.T) {
	b := NewBitset(64)
	if b.Has(1000) {
		t.Error("Has past capacity should be false")
	}
}

// TestBitsetMatchesMap is a property test: a bitset driven by a random
// operation sequence behaves exactly like a map[int]bool.
func TestBitsetMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBitset(1024)
		ref := map[int]bool{}
		for _, op := range ops {
			v := int(op % 1024)
			switch (op / 1024) % 3 {
			case 0:
				b.Add(v)
				ref[v] = true
			case 1:
				b.Remove(v)
				delete(ref, v)
			case 2:
				if b.Has(v) != ref[v] {
					return false
				}
			}
		}
		if b.Len() != len(ref) {
			return false
		}
		got := b.Slice()
		want := make([]int, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Ints(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBitsetIntersection(t *testing.T) {
	a, b := NewBitset(256), NewBitset(256)
	for i := 0; i < 256; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 256; i += 3 {
		b.Add(i)
	}
	if !a.IntersectsWith(b) {
		t.Error("multiples of 6 exist; should intersect")
	}
	c := NewBitset(256)
	c.Add(1)
	c.Add(3)
	if a.IntersectsWith(c) {
		t.Error("even vs odd should not intersect")
	}
}

// TestGainHeapOrdering checks the (gain desc, tie asc, key asc) order.
func TestGainHeapOrdering(t *testing.T) {
	var h GainHeap
	h.Push(1, 1.0, 5)
	h.Push(2, 2.0, 9)
	h.Push(3, 2.0, 3)
	h.Push(4, 2.0, 3)
	wantKeys := []int32{3, 4, 2, 1} // gain 2 first; tie 3 before 9; key asc
	for _, want := range wantKeys {
		k, _, _, ok := h.Pop()
		if !ok || k != want {
			t.Fatalf("pop = %d (ok=%v), want %d", k, ok, want)
		}
	}
	if _, _, _, ok := h.Pop(); ok {
		t.Fatal("heap should be empty")
	}
}

// TestGainHeapMatchesSort is a property test against a sorted
// reference: random pushes interleaved with pops (gains, ties and keys
// from small ranges, so equal gains, equal ties and repeated keys are
// likely) must pop in the reference's order. After every step TopGain
// must report the reference's best gain, and StillBest must accept
// probes equal to the best entry or just before it and reject probes
// just after it, where "just" is one step in gain, tie or key.
func TestGainHeapMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h GainHeap
		var ref []gainEntry // sorted by before
		for step := 0; step < 300; step++ {
			if len(ref) == 0 || r.Intn(3) > 0 {
				e := gainEntry{float64(r.Intn(10)), int32(r.Intn(4)), int32(r.Intn(16))}
				h.Push(e.key, e.gain, e.tie)
				i := sort.Search(len(ref), func(i int) bool { return !before(ref[i], e) })
				ref = slices.Insert(ref, i, e)
			} else {
				k, g, tie, ok := h.Pop()
				if !ok || (gainEntry{g, tie, k}) != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if !topMatches(&h, ref) {
				return false
			}
		}
		for len(ref) > 0 {
			k, g, tie, ok := h.Pop()
			if !ok || (gainEntry{g, tie, k}) != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		_, _, _, ok := h.Pop()
		return !ok && h.Len() == 0 && topMatches(&h, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// topMatches checks TopGain and StillBest against the sorted reference.
func topMatches(h *GainHeap, ref []gainEntry) bool {
	tg, ok := h.TopGain()
	if len(ref) == 0 {
		return !ok && h.StillBest(0, 0, 0)
	}
	b := ref[0]
	if !ok || tg != b.gain {
		return false
	}
	up, down := math.Inf(1), math.Inf(-1)
	ahead := []gainEntry{b, {math.Nextafter(b.gain, up), b.tie, b.key}, {b.gain, b.tie - 1, b.key}, {b.gain, b.tie, b.key - 1}}
	behind := []gainEntry{{math.Nextafter(b.gain, down), b.tie, b.key}, {b.gain, b.tie + 1, b.key}, {b.gain, b.tie, b.key + 1}}
	for _, p := range ahead {
		if !h.StillBest(p.key, p.gain, p.tie) {
			return false
		}
	}
	for _, p := range behind {
		if h.StillBest(p.key, p.gain, p.tie) {
			return false
		}
	}
	return true
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("bad permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}
