package generate

import (
	"testing"

	"tanglefind/internal/ds"
)

// Structural expectations: the fragment generators must produce the
// gate counts and interfaces their circuits imply, so embedding
// arithmetic in the proxies means what the names claim.

func TestRippleCarryAdderStructure(t *testing.T) {
	w := 8
	f := RippleCarryAdder(w)
	if f.Cells != 5*w {
		t.Errorf("cells = %d, want %d (5 per bit)", f.Cells, 5*w)
	}
	// Interface: a_i, b_i, sum_i per bit + carry-in + carry-out.
	if got, want := len(f.OpenNets), 3*w+2; got != want {
		t.Errorf("open nets = %d, want %d", got, want)
	}
}

func TestDecoderStructure(t *testing.T) {
	n := 5
	f := Decoder(n)
	// Interface: n address inputs + 2^n outputs.
	if got, want := len(f.OpenNets), n+(1<<n); got != want {
		t.Errorf("open nets = %d, want %d", got, want)
	}
	if f.Cells < (1<<n)+2*n {
		t.Errorf("cells = %d, want at least %d (ANDs + drivers)", f.Cells, (1<<n)+2*n)
	}
}

func TestMuxTreeStructure(t *testing.T) {
	ways := 32
	f := MuxTree(ways)
	// Interface: 32 data + 5 selects + 1 output.
	if got, want := len(f.OpenNets), ways+5+1; got != want {
		t.Errorf("open nets = %d, want %d", got, want)
	}
}

func TestArrayMultiplierStructure(t *testing.T) {
	w := 6
	f := ArrayMultiplier(w)
	// At least w^2 partial products + (w-1)*w adders + 2w drivers.
	minCells := w*w + (w-1)*w + 2*w
	if f.Cells < minCells {
		t.Errorf("cells = %d, want >= %d", f.Cells, minCells)
	}
	// Interface: 2w operand bits + w product bits.
	if got, want := len(f.OpenNets), 3*w; got != want {
		t.Errorf("open nets = %d, want %d", got, want)
	}
}

func TestWithReducedInterface(t *testing.T) {
	f := Decoder(6) // 6 + 64 open nets
	r := WithReducedInterface(f, 10)
	if len(r.OpenNets) > 14 { // keepOpen + up to 4 residual
		t.Errorf("open nets = %d, want <= 14", len(r.OpenNets))
	}
	if r.Cells <= f.Cells {
		t.Error("reduction cells not added")
	}
	// All original open nets either stayed open or gained a consumer.
	if got, want := len(r.InternalNets)+len(r.OpenNets), len(f.InternalNets)+len(f.OpenNets); got < want {
		t.Errorf("nets lost: %d < %d", got, want)
	}
	// No-op cases.
	same := WithReducedInterface(f, 1000)
	if same.Cells != f.Cells || len(same.OpenNets) != len(f.OpenNets) {
		t.Error("keepOpen above interface size should be a no-op")
	}
	// The reduced fragment must still build and stay connected.
	nl, err := BuildStandalone(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	if !connected(nl) {
		t.Error("reduced fragment disconnected")
	}
}

func TestEmbedGroundTruth(t *testing.T) {
	b, hostOpen, err := NewHierarchicalHost(HierSpec{Cells: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := newTestRNGForEmbed()
	f := DissolvedROM(300, 20, 7)
	cells := Embed(b, f, hostOpen, rng)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != f.Cells {
		t.Fatalf("ground truth size %d, want %d", len(cells), f.Cells)
	}
	// Cut equals the interface width: internal nets gained no host
	// pins, every open net did (or stayed internal-only when the host
	// pool was empty — not the case here).
	cut := nl.Cut(cells)
	if cut != 20 {
		t.Errorf("embedded cut = %d, want 20", cut)
	}
}

func newTestRNGForEmbed() *ds.RNG { return ds.NewRNG(55) }
