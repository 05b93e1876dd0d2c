package netlist

import (
	"math/rand"
	"testing"
)

// viewFixture builds a netlist with a mix of internal, boundary and
// external nets around the subset {1, 2, 3}.
func viewFixture(t *testing.T) *Netlist {
	t.Helper()
	var b Builder
	b.AddCells(6)
	b.AddNet("inner", 1, 2)    // fully inside
	b.AddNet("span", 1, 2, 3)  // fully inside
	b.AddNet("cut", 2, 4)      // one pin inside -> dropped from view
	b.AddNet("out", 0, 5)      // fully outside
	b.AddNet("mixed", 1, 3, 5) // two pins inside -> kept, restricted
	return b.MustBuild()
}

func TestInducedViewBasics(t *testing.T) {
	nl := viewFixture(t)
	v := nl.InducedView([]CellID{3, 1, 2, 3}) // unsorted, duplicated
	for i, want := range []CellID{1, 2, 3} {
		if v.LocalCell(want) != int32(i) {
			t.Errorf("LocalCell(%d) = %d, want %d", want, v.LocalCell(want), i)
		}
	}
	if v.LocalCell(0) != -1 || v.LocalCell(4) != -1 {
		t.Error("outside cells must map to -1")
	}
	m := v.Materialize()
	if m.NumCells() != 3 {
		t.Fatalf("NumCells = %d, want 3", m.NumCells())
	}
	// Kept nets, in ascending parent order: inner (2 in), span (3 in),
	// mixed (2 in); cut and out are dropped.
	if m.NumNets() != 3 {
		t.Fatalf("NumNets = %d, want 3", m.NumNets())
	}
	if m.NumPins() != 2+3+2 {
		t.Fatalf("NumPins = %d, want 7", m.NumPins())
	}
	for n, want := range []string{"inner", "span", "mixed"} {
		if got := m.NetName(NetID(n)); got != want {
			t.Errorf("net %d = %q, want %q", n, got, want)
		}
	}
	// Net "mixed" restricted to {1, 3} = locals {0, 2}.
	if got := m.NetPins(2); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("NetPins(mixed) = %v, want [0 2]", got)
	}
	// Cell 2 (local 1) pins nets inner and span but not the dropped
	// "cut" net.
	if got := m.CellPins(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("CellPins(local 1) = %v, want [0 1]", got)
	}
}

func TestViewMaterializeEquivalence(t *testing.T) {
	// Property: Materialize must equal the induced netlist built the
	// slow way through a Builder with DropDegenerateNets.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		var b Builder
		n := 5 + r.Intn(40)
		b.AddCells(n)
		for i := 0; i < n; i++ {
			b.SetCellArea(CellID(i), 1+float64(r.Intn(4)))
		}
		nets := 1 + r.Intn(60)
		for i := 0; i < nets; i++ {
			sz := 1 + r.Intn(6)
			pins := make([]CellID, sz)
			for j := range pins {
				pins[j] = CellID(r.Intn(n))
			}
			b.AddNet("", pins...)
		}
		nl := b.MustBuild()
		var members []CellID
		for c := 0; c < n; c++ {
			if r.Intn(2) == 0 {
				members = append(members, CellID(c))
			}
		}
		v := nl.InducedView(members)
		got := v.Materialize()
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: materialized netlist invalid: %v", trial, err)
		}

		// Reference: rebuild through the Builder.
		var rb Builder
		local := make(map[CellID]CellID)
		for i, c := range v.cells {
			id := rb.AddCell("")
			rb.SetCellArea(id, nl.CellArea(c))
			local[c] = CellID(i)
		}
		rb.DropDegenerateNets = true
		for e := 0; e < nl.NumNets(); e++ {
			var pins []CellID
			for _, c := range nl.NetPins(NetID(e)) {
				if lc, ok := local[c]; ok {
					pins = append(pins, lc)
				}
			}
			rb.AddNet("", pins...)
		}
		want := rb.MustBuild()
		if got.NumCells() != want.NumCells() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() {
			t.Fatalf("trial %d: counts %d/%d/%d want %d/%d/%d", trial,
				got.NumCells(), got.NumNets(), got.NumPins(),
				want.NumCells(), want.NumNets(), want.NumPins())
		}
		for e := 0; e < got.NumNets(); e++ {
			gp, wp := got.NetPins(NetID(e)), want.NetPins(NetID(e))
			if len(gp) != len(wp) {
				t.Fatalf("trial %d: net %d size %d want %d", trial, e, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("trial %d: net %d pin %d = %d want %d", trial, e, i, gp[i], wp[i])
				}
			}
		}
		for c := 0; c < got.NumCells(); c++ {
			if got.CellArea(CellID(c)) != want.CellArea(CellID(c)) {
				t.Fatalf("trial %d: cell %d area differs", trial, c)
			}
		}
	}
}

func TestViewEmpty(t *testing.T) {
	nl := viewFixture(t)
	m := nl.InducedView(nil).Materialize()
	if m.NumCells() != 0 || m.NumNets() != 0 || m.NumPins() != 0 {
		t.Fatalf("materialized empty view has %d/%d/%d", m.NumCells(), m.NumNets(), m.NumPins())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
