package netlist

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func buildNamed(t *testing.T) *Netlist {
	t.Helper()
	var b Builder
	u0 := b.AddCell("u0")
	u1 := b.AddCell("alu/add17")
	u2 := b.AddCell("")
	u3 := b.AddCell("rom_q3")
	b.SetCellArea(u1, 2.25)
	b.AddNet("clk", u0, u1, u2, u3)
	b.AddNet("", u1, u2)
	b.AddNet("q", u0, u3)
	return b.MustBuild()
}

// sameHypergraph compares structure plus the observable names/areas.
func sameHypergraph(t *testing.T, got, want *Netlist) {
	t.Helper()
	if got.NumCells() != want.NumCells() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() {
		t.Fatalf("counts %d/%d/%d, want %d/%d/%d",
			got.NumCells(), got.NumNets(), got.NumPins(),
			want.NumCells(), want.NumNets(), want.NumPins())
	}
	for n := 0; n < want.NumNets(); n++ {
		if !reflect.DeepEqual(got.NetPins(NetID(n)), want.NetPins(NetID(n))) {
			t.Fatalf("net %d pins differ: %v vs %v", n, got.NetPins(NetID(n)), want.NetPins(NetID(n)))
		}
	}
	for c := 0; c < want.NumCells(); c++ {
		if !reflect.DeepEqual(got.CellPins(CellID(c)), want.CellPins(CellID(c))) {
			t.Fatalf("cell %d pins differ", c)
		}
	}
}

func TestBinaryRoundTripFullFidelity(t *testing.T) {
	nl := buildNamed(t)
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, back, nl)
	// Unlike .tfnet, the binary format carries cell names and areas.
	for c := 0; c < nl.NumCells(); c++ {
		if back.CellName(CellID(c)) != nl.CellName(CellID(c)) {
			t.Errorf("cell %d name %q, want %q", c, back.CellName(CellID(c)), nl.CellName(CellID(c)))
		}
		if back.CellArea(CellID(c)) != nl.CellArea(CellID(c)) {
			t.Errorf("cell %d area %v, want %v", c, back.CellArea(CellID(c)), nl.CellArea(CellID(c)))
		}
	}
	for n := 0; n < nl.NumNets(); n++ {
		if back.NetName(NetID(n)) != nl.NetName(NetID(n)) {
			t.Errorf("net %d name %q, want %q", n, back.NetName(NetID(n)), nl.NetName(NetID(n)))
		}
	}
}

// TestTextBinaryCrossFormat is the .tfnet ↔ .tfb golden: the same
// netlist written through either format must read back to the same
// hypergraph, and re-serializing the binary-loaded netlist as text
// must be byte-identical to the original text form.
func TestTextBinaryCrossFormat(t *testing.T) {
	nl := buildNamed(t)
	var text bytes.Buffer
	if err := nl.Write(&text); err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := nl.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	fromText, err := Read(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameHypergraph(t, fromBin, fromText)
	var textAgain bytes.Buffer
	if err := fromBin.Write(&textAgain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(textAgain.Bytes(), text.Bytes()) {
		t.Errorf("binary-loaded netlist re-serialized differently:\n%q\nvs\n%q", textAgain.Bytes(), text.Bytes())
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		var b Builder
		n := 1 + r.Intn(50)
		b.AddCells(n)
		nets := r.Intn(80)
		for i := 0; i < nets; i++ {
			sz := 1 + r.Intn(6)
			pins := make([]CellID, sz)
			for j := range pins {
				pins[j] = CellID(r.Intn(n))
			}
			b.AddNet("", pins...)
		}
		nl := b.MustBuild()
		var buf bytes.Buffer
		if err := nl.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameHypergraph(t, back, nl)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	var b Builder
	nl := b.MustBuild()
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != 0 || back.NumNets() != 0 || back.NumPins() != 0 {
		t.Fatalf("empty round trip changed counts: %d/%d/%d", back.NumCells(), back.NumNets(), back.NumPins())
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	nl := buildNamed(t)
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXX"), base[4:]...),
		"bad version": append(append([]byte{}, base[:4]...), append([]byte{9, 0, 0, 0}, base[8:]...)...),
		"truncated":   base[:len(base)/2],
	}
	for name, input := range cases {
		if _, err := ReadBinary(bytes.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadWriteFileAutodetect(t *testing.T) {
	nl := buildNamed(t)
	dir := t.TempDir()
	for _, name := range []string{"a.tfnet", "a.tfb"} {
		path := filepath.Join(dir, name)
		if err := nl.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameHypergraph(t, back, nl)
	}
	// The two files must actually be in different formats.
	tfb, err := os.ReadFile(filepath.Join(dir, "a.tfb"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(tfb, tfbMagic[:]) {
		t.Error("a.tfb is not binary")
	}
	text, err := os.ReadFile(filepath.Join(dir, "a.tfnet"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(text, []byte("tfnet 1")) {
		t.Error("a.tfnet is not text")
	}
}

func TestBinaryLyingHeaderDoesNotOverAllocate(t *testing.T) {
	// A 28-byte header claiming 2^31-1 pins followed by nothing must
	// fail on the short read without materializing giant arrays.
	var buf bytes.Buffer
	buf.Write(tfbMagic[:])
	buf.Write([]byte{1, 0, 0, 0}) // version
	buf.Write([]byte{0, 0, 0, 0}) // flags
	buf.Write([]byte{10, 0, 0, 0})
	buf.Write([]byte{5, 0, 0, 0})
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // numPins
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected error for truncated stream")
	}
	// The same for 2^31-1 nets, whose offsets are read first: from
	// memory or from a stream of unknown length, the reader allocates
	// well under a megabyte before the short read.
	hdr := buf.Bytes()
	copy(hdr[16:20], []byte{0xff, 0xff, 0xff, 0x7f})
	for _, r := range []func() io.Reader{
		func() io.Reader { return bytes.NewReader(hdr) },
		func() io.Reader { return io.MultiReader(bytes.NewReader(hdr)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(r())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("expected error for truncated stream")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("a 28-byte header made the reader allocate %d bytes", grew)
		}
	}
}

func TestBinaryRejectsImplausibleCellCount(t *testing.T) {
	// Header claiming 2^31-1 cells with zero pins is a crafted
	// allocation bomb (fromNetCSR would build two O(numCells) arrays
	// from 32 input bytes); the reader must reject it up front.
	var buf bytes.Buffer
	buf.Write(tfbMagic[:])
	buf.Write([]byte{1, 0, 0, 0})             // version
	buf.Write([]byte{0, 0, 0, 0})             // flags
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f}) // numCells = MaxInt32
	buf.Write([]byte{0, 0, 0, 0})             // numNets = 0
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0}) // numPins = 0
	buf.Write([]byte{0, 0, 0, 0})             // offsets[0] = 0
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected implausible-header error")
	}
}

// TestReadRejectsImplausibleCellCount is the .tfnet twin of
// TestBinaryRejectsImplausibleCellCount: a header claiming more than
// 1<<20 cells with fewer than one pin per two cells is rejected before
// anything O(cells) is allocated; at the limit it still loads.
func TestReadRejectsImplausibleCellCount(t *testing.T) {
	for _, in := range []string{
		"tfnet 1\ncells 3000000\n",
		"tfnet 1\ncells 2147483647\n",
		"tfnet 1\ncells 1048577\nnet a 0 1\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%q: err = %v, want an implausible-header error", in, err)
		}
	}
	nl, err := Read(strings.NewReader("tfnet 1\ncells 1048576\nnet a 0 1\n"))
	if err != nil {
		t.Fatalf("1<<20 cells: %v", err)
	}
	if nl.NumCells() != 1<<20 || nl.NumPins() != 2 {
		t.Fatalf("loaded %d cells and %d pins", nl.NumCells(), nl.NumPins())
	}
}

// TestNamesAndAreasKeptOnlyWhereSet checks that names are stored only
// up to the last named id and areas only once one is non-unit, through
// the Builder and through a .tfb round trip, and that a built netlist
// does not change when its Builder is edited afterwards.
func TestNamesAndAreasKeptOnlyWhereSet(t *testing.T) {
	var b Builder
	b.AddCells(1000)
	b.AddNet("tag", 0, 1)
	for i := 1; i < 999; i++ {
		b.AddNet("", CellID(i), CellID(i+1))
	}
	b.SetCellArea(5, 1) // unit: nothing to store
	nl := b.MustBuild()
	if len(nl.netNames) != 1 || nl.cellNames != nil || nl.cellArea != nil {
		t.Fatalf("kept %d net names, %d cell names, %d areas; want 1, 0, 0", len(nl.netNames), len(nl.cellNames), len(nl.cellArea))
	}
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.netNames) != 1 || back.NetName(0) != "tag" || back.NetName(1) != "n1" {
		t.Fatalf("read back %d net names (%q, %q)", len(back.netNames), back.NetName(0), back.NetName(1))
	}

	named := b.AddCell("late")
	b.SetCellArea(7, 2.5)
	nl2 := b.MustBuild()
	if len(nl2.cellNames) != int(named)+1 || nl2.CellName(named) != "late" || nl2.CellName(3) != "c3" {
		t.Fatalf("kept %d cell names", len(nl2.cellNames))
	}
	if len(nl2.cellArea) != nl2.NumCells() || nl2.CellArea(7) != 2.5 || nl2.CellArea(named) != 1 {
		t.Fatalf("areas: %d entries, cell 7 %v, cell %d %v", len(nl2.cellArea), nl2.CellArea(7), named, nl2.CellArea(named))
	}
	b.SetCellArea(7, 4)
	if nl2.CellArea(7) != 2.5 || nl.CellArea(7) != 1 {
		t.Fatal("editing the Builder changed a netlist it built")
	}
}
