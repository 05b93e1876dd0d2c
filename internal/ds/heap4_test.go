package ds

import (
	"testing"
	"unsafe"
)

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
	want := int64(cap(h.entries)) * int64(unsafe.Sizeof(gainEntry{}))
	if got := h.MemoryFootprint(); got != want {
		t.Fatalf("footprint %d, want cap(%d)*%d = %d",
			got, cap(h.entries), unsafe.Sizeof(gainEntry{}), want)
	}
	if h.MemoryFootprint() < 100*16 {
		t.Fatalf("footprint %d smaller than 100 16-byte entries", h.MemoryFootprint())
	}
}
