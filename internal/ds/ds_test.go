package ds

import (
	"math/rand"
	"reflect"
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

// TestGainHeapMatchesSort is a property test against a reference sort.
func TestGainHeapMatchesSort(t *testing.T) {
	f := func(gains []float64) bool {
		var h GainHeap
		type entry struct {
			gain float64
			key  int32
		}
		var ref []entry
		for i, g := range gains {
			h.Push(int32(i), g, 0)
			ref = append(ref, entry{g, int32(i)})
		}
		sort.Slice(ref, func(a, b int) bool {
			if ref[a].gain != ref[b].gain {
				return ref[a].gain > ref[b].gain
			}
			return ref[a].key < ref[b].key
		})
		for _, want := range ref {
			k, g, _, ok := h.Pop()
			if !ok || k != want.key || g != want.gain {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Values: func(vs []reflect.Value, r *rand.Rand) {
		n := r.Intn(50)
		g := make([]float64, n)
		for i := range g {
			g[i] = float64(r.Intn(10)) // duplicates likely
		}
		vs[0] = reflect.ValueOf(g)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDSU(t *testing.T) {
	d := NewDSU(10)
	if d.Find(3) != 3 {
		t.Fatal("initial parent wrong")
	}
	if !d.Union(1, 2) || d.Union(1, 2) {
		t.Fatal("Union return values wrong")
	}
	d.Union(2, 3)
	if d.Find(1) != d.Find(3) {
		t.Error("1 and 3 should be joined")
	}
	if d.Find(1) == d.Find(4) {
		t.Error("1 and 4 should be separate")
	}
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
