package ds

import (
	"testing"
	"unsafe"
)

// TestGainHeapPushHinted pins the cross-push coalescing contract: a
// valid hint overwrites the buffered entry in place (no duplicate, pop
// sequence as if only the final revision was ever pushed), a stale or
// mismatched hint degrades to a plain append, and the tracked buffer
// best survives in-place improvement of a non-best slot.
func TestGainHeapPushHinted(t *testing.T) {
	var h GainHeap
	s5 := h.PushHinted(5, 1.0, 0, ^uint32(0)) // garbage hint: appended
	s9 := h.PushHinted(9, 3.0, 0, ^uint32(0))
	if s5 == s9 {
		t.Fatalf("distinct keys share slot %d", s5)
	}
	// Coalesce key 5 upward past the current best (key 9 at 3.0).
	if got := h.PushHinted(5, 4.0, 0, s5); got != s5 {
		t.Fatalf("valid hint moved slot %d -> %d", s5, got)
	}
	if h.Len() != 2 {
		t.Fatalf("coalesced push grew the queue to %d entries", h.Len())
	}
	// A hint pointing at another key's slot must append, not clobber.
	s7 := h.PushHinted(7, 2.0, 0, s9)
	if s7 == s9 || h.Len() != 3 {
		t.Fatalf("mismatched hint: slot %d (from %d), len %d", s7, s9, h.Len())
	}
	for _, want := range []int32{5, 9, 7} {
		k, _, _, ok := h.Pop()
		if !ok || k != want {
			t.Fatalf("pop = %d (ok=%v), want %d", k, ok, want)
		}
	}

	// Across a spill the remembered slot goes stale; the key check must
	// reject it and append rather than corrupt an unrelated entry.
	h.Reset()
	slot := h.PushHinted(1, 1.0, 0, ^uint32(0))
	for i := int32(2); i < 2+heapBufCap; i++ { // forces at least one spill
		h.PushHinted(i, 0.5, 0, ^uint32(0))
	}
	h.PushHinted(1, 6.0, 0, slot)
	if k, g, _, ok := h.Pop(); !ok || k != 1 || g != 6.0 {
		t.Fatalf("post-spill pop = key %d gain %g (ok=%v), want key 1 gain 6", k, g, ok)
	}
	// The pre-spill revision of key 1 is still queued and stale — exactly
	// what the absorb loop's pop path discards by gain mismatch.
	seen := 0
	for {
		k, g, _, ok := h.Pop()
		if !ok {
			break
		}
		if k == 1 {
			if g != 1.0 {
				t.Fatalf("stale revision of key 1 has gain %g, want 1", g)
			}
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("found %d stale revisions of key 1, want 1", seen)
	}
}

// TestGainHeapMemoryFootprint guards against the footprint drifting
// from the real entry size again (it was once hardcoded to a stale
// constant).
func TestGainHeapMemoryFootprint(t *testing.T) {
	var h GainHeap
	if h.MemoryFootprint() != 0 {
		t.Fatalf("empty heap reports %d bytes", h.MemoryFootprint())
	}
	for i := int32(0); i < 100; i++ {
		h.Push(i, float64(i), 0)
	}
	want := int64(cap(h.entries)+cap(h.buf)) * int64(unsafe.Sizeof(gainEntry{}))
	if got := h.MemoryFootprint(); got != want {
		t.Fatalf("footprint %d, want (cap(%d)+cap(%d))*%d = %d",
			got, cap(h.entries), cap(h.buf), unsafe.Sizeof(gainEntry{}), want)
	}
	if h.MemoryFootprint() < 100*16 {
		t.Fatalf("footprint %d smaller than 100 16-byte entries", h.MemoryFootprint())
	}
}
