package netlist

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestReadNeverPanics feeds the parser structured garbage: mutated
// valid files, truncations and random bytes. The parser must return an
// error or a valid netlist — never panic, never return a netlist that
// fails Validate.
func TestReadNeverPanics(t *testing.T) {
	var b Builder
	b.AddCells(20)
	for i := 0; i < 19; i++ {
		b.AddNet("", CellID(i), CellID(i+1))
	}
	nl := b.MustBuild()
	var valid bytes.Buffer
	if err := nl.Write(&valid); err != nil {
		t.Fatal(err)
	}
	base := valid.Bytes()

	r := rand.New(rand.NewSource(42))
	check := func(input []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("parser panicked on %q: %v", truncate(input), p)
			}
		}()
		got, err := Read(bytes.NewReader(input))
		if err == nil {
			if vErr := got.Validate(); vErr != nil {
				t.Fatalf("parser accepted invalid netlist from %q: %v", truncate(input), vErr)
			}
		}
	}
	// Truncations.
	for cut := 0; cut < len(base); cut += 7 {
		check(base[:cut])
	}
	// Byte mutations.
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), base...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] = byte(r.Intn(256))
		}
		check(mut)
	}
	// Random garbage.
	for trial := 0; trial < 200; trial++ {
		g := make([]byte, r.Intn(200))
		for i := range g {
			g[i] = byte(r.Intn(256))
		}
		check(g)
	}
	// Adversarial structured inputs.
	for _, s := range []string{
		"tfnet 1\ncells -5\n",
		"tfnet 1\ncells 999999999999999999999\n",
		"tfnet 1\ncells 2\nnet x -1\n",
		"tfnet 1\ncells 2\nnet x 99999999\n",
		"tfnet 1\ncells 1\nnet\n",
		strings.Repeat("tfnet 1\n", 50),
		"tfnet 1\ncells 3000000\n", // 22 bytes claiming 3M pinless cells
	} {
		check([]byte(s))
	}
}

// checkTextInput is the .tfnet twin of checkBinaryInput: the reader
// must return an error or a netlist that passes Validate — never panic.
func checkTextInput(tb testing.TB, input []byte) {
	defer func() {
		if p := recover(); p != nil {
			tb.Fatalf("text reader panicked on %q: %v", truncate(input), p)
		}
	}()
	got, err := Read(bytes.NewReader(input))
	if err == nil {
		if vErr := got.Validate(); vErr != nil {
			tb.Fatalf("text reader accepted invalid netlist from %q: %v", truncate(input), vErr)
		}
	}
}

// FuzzRead is the native fuzz target for the .tfnet reader, which
// parses every text upload; `go test` runs the seed corpus, `go test
// -fuzz=FuzzRead` explores.
func FuzzRead(f *testing.F) {
	var b Builder
	b.AddCells(6)
	b.AddDrivenNet("clk", []CellID{0}, 1, 2, 3)
	b.AddNet("", 3, 4, 5)
	b.AddNet("q", 5, 0)
	var text bytes.Buffer
	if err := b.MustBuild().Write(&text); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())
	f.Add([]byte("tfnet 1\ncells 3000000\n"))
	f.Add([]byte("tfnet 1\n# comment\ncells 2\n\n net a *0 1 1\n"))
	f.Add([]byte("tfnet 1\ncells 2\nnet\u00a0a 0 1\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		checkTextInput(t, input)
	})
}

func truncate(b []byte) string {
	s := string(b)
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}

// binarySeed serializes a small netlist with names and areas so the
// binary fuzz inputs exercise every section of the .tfb layout.
func binarySeed(tb testing.TB) []byte {
	var b Builder
	b.AddCell("u0")
	b.AddCell("u1")
	b.AddCells(18)
	b.SetCellArea(1, 2.5)
	for i := 0; i < 19; i++ {
		b.AddNet("w", CellID(i), CellID(i+1))
	}
	nl := b.MustBuild()
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkBinaryInput is the shared oracle: the reader must return an
// error or a netlist that passes Validate — never panic. The same
// bytes from a stream that cannot report its length take the
// chunk-by-chunk allocation path and must read the same.
func checkBinaryInput(tb testing.TB, input []byte) {
	defer func() {
		if p := recover(); p != nil {
			tb.Fatalf("binary reader panicked on %q: %v", truncate(input), p)
		}
	}()
	got, err := ReadBinary(bytes.NewReader(input))
	if err == nil {
		if vErr := got.Validate(); vErr != nil {
			tb.Fatalf("binary reader accepted invalid netlist from %q: %v", truncate(input), vErr)
		}
	}
	streamed, serr := ReadBinary(io.MultiReader(bytes.NewReader(input)))
	if fmt.Sprint(err) != fmt.Sprint(serr) {
		tb.Fatalf("reading %q from memory gave %v, from a stream %v", truncate(input), err, serr)
	}
	if err == nil {
		var a, b bytes.Buffer
		if got.WriteBinary(&a) != nil || streamed.WriteBinary(&b) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
			tb.Fatalf("reading %q from memory and from a stream gave different netlists", truncate(input))
		}
	}
}

// TestReadBinaryNeverPanics is the .tfb analog of TestReadNeverPanics:
// truncations, byte mutations and random garbage.
func TestReadBinaryNeverPanics(t *testing.T) {
	base := binarySeed(t)
	r := rand.New(rand.NewSource(43))
	for cut := 0; cut < len(base); cut += 5 {
		checkBinaryInput(t, base[:cut])
	}
	for trial := 0; trial < 500; trial++ {
		mut := append([]byte(nil), base...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] = byte(r.Intn(256))
		}
		checkBinaryInput(t, mut)
	}
	for trial := 0; trial < 200; trial++ {
		g := make([]byte, r.Intn(300))
		for i := range g {
			g[i] = byte(r.Intn(256))
		}
		copy(g, tfbMagic[:]) // get past the magic so deeper code runs
		checkBinaryInput(t, g)
	}
}

// FuzzReadBinary is the native fuzz target for the .tfb reader; `go
// test` runs the seed corpus, `go test -fuzz=FuzzReadBinary` explores.
func FuzzReadBinary(f *testing.F) {
	f.Add(binarySeed(f))
	f.Add([]byte{})
	f.Add(tfbMagic[:])
	f.Fuzz(func(t *testing.T, input []byte) {
		checkBinaryInput(t, input)
	})
}

// FuzzDeltaApply feeds arbitrary delta documents at a fixed parent
// netlist. The invariants: ParseDelta/Apply never panic, an accepted
// delta always yields a netlist passing Validate, and apply followed
// by inverse-apply reproduces the parent bit-identically — both the
// CSR structure (SameStructure) and the canonical .tfb serialization
// the content-addressed store keys on.
func FuzzDeltaApply(f *testing.F) {
	f.Add([]byte(`{"set_nets":[{"net":0,"cells":[0,5,3]}]}`))
	f.Add([]byte(`{"remove_cells":[19,4],"remove_nets":[18]}`))
	f.Add([]byte(`{"add_cells":[{"name":"b","area":2}],"add_nets":[{"cells":[20,0]}]}`))
	f.Add([]byte(`{"add_cells":[{}],"remove_cells":[0],"set_nets":[{"net":3,"cells":[20,7]}],"add_nets":[{"cells":[1,2]}],"remove_nets":[9]}`))
	f.Add([]byte(`{"set_nets":[{"net":1,"cells":[]}]}`))
	f.Add([]byte(`{}`))

	base, err := ReadBinary(bytes.NewReader(binarySeed(f)))
	if err != nil {
		f.Fatal(err)
	}
	var parentBytes bytes.Buffer
	if err := base.WriteBinary(&parentBytes); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("delta apply panicked on %q: %v", truncate(doc), p)
			}
		}()
		d, err := ParseDelta(doc)
		if err != nil {
			return
		}
		child, eff, err := d.Apply(base)
		if err != nil {
			// Rejected deltas must agree with Validate.
			if vErr := d.Validate(base); vErr == nil {
				t.Fatalf("apply rejected (%v) a delta Validate accepts: %q", err, truncate(doc))
			}
			return
		}
		if vErr := child.Validate(); vErr != nil {
			t.Fatalf("apply produced invalid netlist from %q: %v", truncate(doc), vErr)
		}
		for _, c := range eff.Dirty {
			if c < 0 || int(c) >= child.NumCells() {
				t.Fatalf("dirty cell %d out of child range %d", c, child.NumCells())
			}
		}
		inv, err := d.Inverse(base)
		if err != nil {
			t.Fatalf("inverse failed on an applicable delta %q: %v", truncate(doc), err)
		}
		back, _, err := inv.Apply(child)
		if err != nil {
			t.Fatalf("inverse apply failed for %q: %v", truncate(doc), err)
		}
		if err := base.SameStructure(back); err != nil {
			t.Fatalf("round trip diverged for %q: %v", truncate(doc), err)
		}
		var buf bytes.Buffer
		if err := back.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(parentBytes.Bytes(), buf.Bytes()) {
			t.Fatalf("serialized round trip differs for %q", truncate(doc))
		}
	})
}

// FuzzCoarsen feeds arbitrary bytes through the .tfb reader and, when
// a valid netlist comes out, coarsens it and checks every hierarchy
// invariant: BuildHierarchy must never panic, every coarse level must
// pass Validate, the projection maps must partition the fine cells and
// conserve area, and coarse nets must be exactly the image of the fine
// nets. Runs the seed corpus under plain `go test`; explore with `go
// test -fuzz=FuzzCoarsen`.
func FuzzCoarsen(f *testing.F) {
	f.Add(binarySeed(f), 3, 8)
	f.Add([]byte{}, 2, 0)
	f.Add(tfbMagic[:], 5, 1)
	f.Fuzz(func(t *testing.T, input []byte, levels, minCells int) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("coarsen panicked on %q (levels=%d minCells=%d): %v", truncate(input), levels, minCells, p)
			}
		}()
		nl, err := ReadBinary(bytes.NewReader(input))
		if err != nil || nl.Validate() != nil {
			return
		}
		if levels < 1 {
			levels = 1
		}
		if levels > 6 {
			levels = 6
		}
		if minCells < 1 {
			minCells = 1
		}
		h, err := BuildHierarchy(nl, CoarsenOptions{Levels: levels, MinCells: minCells})
		if err != nil {
			if nl.NumCells() > 0 {
				t.Fatalf("coarsen failed on a valid %d-cell netlist: %v", nl.NumCells(), err)
			}
			return
		}
		checkHierarchyInvariants(t, h)
	})
}
