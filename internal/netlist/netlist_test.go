package netlist

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Netlist {
	t.Helper()
	var b Builder
	c0 := b.AddCell("u0")
	c1 := b.AddCell("u1")
	c2 := b.AddCell("u2")
	c3 := b.AddCell("u3")
	b.AddNet("n0", c0, c1)
	b.AddNet("n1", c1, c2, c3)
	b.AddNet("n2", c0, c3)
	nl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestBuilderBasics(t *testing.T) {
	nl := buildSmall(t)
	if nl.NumCells() != 4 || nl.NumNets() != 3 || nl.NumPins() != 7 {
		t.Fatalf("counts = %d/%d/%d, want 4/3/7", nl.NumCells(), nl.NumNets(), nl.NumPins())
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := nl.AvgPins(); got != 7.0/4.0 {
		t.Errorf("AvgPins = %v", got)
	}
	if nl.CellName(0) != "u0" || nl.NetName(1) != "n1" {
		t.Error("names lost")
	}
	if nl.CellDegree(1) != 2 || nl.NetSize(1) != 3 {
		t.Error("degree/size wrong")
	}
}

func TestBuilderDedupesPins(t *testing.T) {
	var b Builder
	c0 := b.AddCell("")
	c1 := b.AddCell("")
	b.AddNet("", c0, c1, c0, c0)
	nl := b.MustBuild()
	if nl.NetSize(0) != 2 {
		t.Errorf("net size = %d, want 2 after dedupe", nl.NetSize(0))
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderDropDegenerate(t *testing.T) {
	var b Builder
	b.DropDegenerateNets = true
	c0 := b.AddCell("")
	c1 := b.AddCell("")
	b.AddNet("single", c0)
	b.AddNet("dup", c1, c1)
	b.AddNet("good", c0, c1)
	nl := b.MustBuild()
	if nl.NumNets() != 1 {
		t.Errorf("nets = %d, want 1", nl.NumNets())
	}
}

func TestBuilderRejectsUnknownCell(t *testing.T) {
	var b Builder
	b.AddCell("")
	b.AddNet("", 0, 99)
	if _, err := b.Build(); err == nil {
		t.Error("expected error for out-of-range cell")
	}
}

func TestAreas(t *testing.T) {
	var b Builder
	c := b.AddCell("")
	b.AddCell("")
	b.SetCellArea(c, 2.5)
	nl := b.MustBuild()
	if nl.CellArea(c) != 2.5 || nl.CellArea(1) != 1 {
		t.Error("areas wrong")
	}
	if nl.TotalArea() != 3.5 {
		t.Errorf("TotalArea = %v", nl.TotalArea())
	}
	nl2, err := nl.WithAreas([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if nl2.CellArea(c) != 1 || nl.CellArea(c) != 2.5 {
		t.Error("WithAreas should not mutate the original")
	}
	if _, err := nl.WithAreas([]float64{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestCutAndPins(t *testing.T) {
	nl := buildSmall(t)
	// Group {c0, c1}: n0 internal, n1 cut (c1 in, c2/c3 out), n2 cut.
	members := []CellID{0, 1}
	if got := nl.Cut(members); got != 2 {
		t.Errorf("Cut = %d, want 2", got)
	}
	if got := nl.PinsIn(members); got != 4 {
		t.Errorf("PinsIn = %d, want 4 (deg 2 + deg 2)", got)
	}
}

func TestStats(t *testing.T) {
	nl := buildSmall(t)
	st := nl.Stats()
	if st.MaxNetSize != 3 || st.MaxDegree != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIORoundTrip(t *testing.T) {
	nl := buildSmall(t)
	var buf bytes.Buffer
	if err := nl.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != nl.NumCells() || back.NumNets() != nl.NumNets() || back.NumPins() != nl.NumPins() {
		t.Fatal("round trip changed counts")
	}
	for n := 0; n < nl.NumNets(); n++ {
		if !reflect.DeepEqual(back.NetPins(NetID(n)), nl.NetPins(NetID(n))) {
			t.Fatalf("net %d pins differ", n)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"bogus header\ncells 3\n",
		"tfnet 1\nnets 3\n",
		"tfnet 1\ncells 2\nnet n0 0 xyz\n",
		"tfnet 1\ncells 2\nunexpected line\n",
		// Ids past int32 must not wrap onto real cells (4294967297 is 1
		// modulo 2^32).
		"tfnet 1\ncells 2\nnet n0 0 4294967297\n",
		"tfnet 1\ncells 2\nnet n0 *-2147483649 1\n",
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

// TestIORoundTripProperty: random netlists survive serialization.
func TestIORoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b Builder
		n := 2 + r.Intn(30)
		b.AddCells(n)
		nets := 1 + r.Intn(40)
		for i := 0; i < nets; i++ {
			sz := 1 + r.Intn(5)
			pins := make([]CellID, sz)
			for j := range pins {
				pins[j] = CellID(r.Intn(n))
			}
			b.AddNet("", pins...)
		}
		nl := b.MustBuild()
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.NumCells() != nl.NumCells() || back.NumPins() != nl.NumPins() {
			return false
		}
		return back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// Swap a pin on the net side only: cell 2 takes cell 1's slot on
	// net n0, breaking the incidence symmetry.
	nl := buildSmall(t)
	nl.netPinCell = append([]CellID(nil), nl.netPinCell...)
	for i := nl.netPinOff[0]; i < nl.netPinOff[1]; i++ {
		if nl.netPinCell[i] == 1 {
			nl.netPinCell[i] = 2
		}
	}
	if err := nl.Validate(); err == nil {
		t.Error("expected validation error for asymmetric pin")
	}
}

func TestValidateCatchesBadOffsets(t *testing.T) {
	nl := buildSmall(t)
	nl.netPinOff = append([]int32(nil), nl.netPinOff...)
	nl.netPinOff[1], nl.netPinOff[2] = nl.netPinOff[2], nl.netPinOff[1]
	if err := nl.Validate(); err == nil {
		t.Error("expected validation error for decreasing offsets")
	}
}

func TestValidateCatchesDuplicatePins(t *testing.T) {
	nl := buildSmall(t)
	// Duplicate the first pin of net n1 in place: the run is no longer
	// strictly ascending.
	nl.netPinCell = append([]CellID(nil), nl.netPinCell...)
	lo := nl.netPinOff[1]
	nl.netPinCell[lo+1] = nl.netPinCell[lo]
	if err := nl.Validate(); err == nil {
		t.Error("expected validation error for duplicate incidence")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	nl := buildSmall(t)
	nl.netPinCell = append([]CellID(nil), nl.netPinCell...)
	nl.netPinCell[0] = CellID(nl.NumCells())
	if err := nl.Validate(); err == nil {
		t.Error("expected validation error for out-of-range cell id")
	}
}
