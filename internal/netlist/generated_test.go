package netlist_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// tagged regenerates a fixed random graph of the given size and
// rebuilds it with one named net, the way uploaded revisions carry a
// tag: the rest of the nets and every cell stay unnamed.
func tagged(tb testing.TB, cells int, seed uint64) *netlist.Netlist {
	tb.Helper()
	rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
		Cells:  cells,
		Blocks: []generate.BlockSpec{{Size: cells / 20}, {Size: cells / 20}},
		Seed:   seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var b netlist.Builder
	b.AddCells(rg.Netlist.NumCells())
	for n := range rg.Netlist.NumNets() {
		name := ""
		if n == 0 {
			name = "rev-1"
		}
		b.AddNet(name, rg.Netlist.NetPins(netlist.NetID(n))...)
	}
	return b.MustBuild()
}

// TestConstructionAllocGuard pins netlist construction and both codecs
// to O(1) allocations: AddNet+Build on warm builder arrays,
// WriteBinary into a warm buffer, ReadBinary from memory and the
// .tfnet Read from memory must allocate the same number of times on a
// 20K- and an 80K-cell netlist. The counts repeat exactly, so the
// guard cannot flake.
func TestConstructionAllocGuard(t *testing.T) {
	var counts [2][4]float64
	for i, cells := range []int{20_000, 80_000} {
		nl := tagged(t, cells, 1)
		var b netlist.Builder
		counts[i][0] = testing.AllocsPerRun(3, func() {
			netlist.ResetBuilder(&b)
			b.AddCells(nl.NumCells())
			b.AddNet("rev-1", nl.NetPins(0)...)
			for n := 1; n < nl.NumNets(); n++ {
				b.AddNet("", nl.NetPins(netlist.NetID(n))...)
			}
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
		var buf bytes.Buffer
		counts[i][1] = testing.AllocsPerRun(3, func() {
			buf.Reset()
			if err := nl.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
		})
		data := buf.Bytes()
		counts[i][2] = testing.AllocsPerRun(3, func() {
			if _, err := netlist.ReadBinary(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		var text bytes.Buffer
		if err := nl.Write(&text); err != nil {
			t.Fatal(err)
		}
		counts[i][3] = testing.AllocsPerRun(3, func() {
			if _, err := netlist.Read(bytes.NewReader(text.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	for op, name := range []string{"AddNet+Build", "WriteBinary", "ReadBinary", "Read"} {
		if counts[0][op] != counts[1][op] {
			t.Errorf("%s allocates %v times at 20K cells and %v at 80K: it allocates per net", name, counts[0][op], counts[1][op])
		}
	}
	t.Logf("allocations per run (AddNet+Build, WriteBinary, ReadBinary, Read): %v", counts[0])
}

// TestTFBDigestPinned pins the version-1 (undirected) .tfb bytes of a
// fixed generated netlist with one named net by their SHA-256. The
// durable store's blobs, its journal and the result cache are keyed by
// such digests, so construction or codec changes must leave them
// exactly as they are. The directed version-2 bytes are pinned by
// cmd/gtllint's TestDirtyFixture.
func TestTFBDigestPinned(t *testing.T) {
	const want = "57d9695285f86045052fe2d1078e888293282d568dcac2e8a342275780b7f2c7"
	nl := tagged(t, 3000, 7)
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf(".tfb digest %s, want %s (%d bytes)", got, want, buf.Len())
	}
	// Reading the bytes back and writing them again is the identity.
	back, err := netlist.ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteBinary(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("read-back netlist re-serializes differently")
	}
}
