package netlist_test

import (
	"bytes"
	"testing"

	"tanglefind/internal/netlist"
)

// sameArray reports whether a and b are views of one backing array.
func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// namedNetlist builds 6 named cells (cell 2 of area 2.5) on a chain of
// 5 named nets, with net 0 pinning pins0.
func namedNetlist(t *testing.T, pins0 ...netlist.CellID) *netlist.Netlist {
	t.Helper()
	var b netlist.Builder
	for _, name := range []string{"ua", "ub", "uc", "ud", "ue", "uf"} {
		b.AddCell(name)
	}
	b.SetCellArea(2, 2.5)
	b.AddNet("w0", pins0...)
	for i := 1; i < 5; i++ {
		b.AddNet("w"+string(rune('0'+i)), netlist.CellID(i), netlist.CellID(i+1))
	}
	return b.MustBuild()
}

func tfb(t *testing.T, nl *netlist.Netlist) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaSharesParentTables checks that an ECO child shares its
// parent's name and area tables when the delta adds no name (for
// areas, no cell), that a delta adding names keeps them only up to
// the last named id, and that a parent with no names or areas keeps a
// child with none.
func TestDeltaSharesParentTables(t *testing.T) {
	parent := namedNetlist(t, 0, 1)
	d := &netlist.Delta{SetNets: []netlist.NetEdit{{Net: 0, Cells: []netlist.CellID{0, 3, 5}}}}
	child, _, err := d.Apply(parent)
	if err != nil {
		t.Fatal(err)
	}
	pn, pc, pa := netlist.Tables(parent)
	cn, cc, ca := netlist.Tables(child)
	if !sameArray(pn, cn) || !sameArray(pc, cc) || !sameArray(pa, ca) {
		t.Fatal("a SetNets-only child copied its parent's name or area tables")
	}
	if cap(cn) != len(cn) || cap(cc) != len(cc) || cap(ca) != len(ca) {
		t.Error("shared tables keep spare capacity an append could write into the parent through")
	}
	if !bytes.Equal(tfb(t, child), tfb(t, namedNetlist(t, 0, 3, 5))) {
		t.Error("the child's .tfb differs from the same netlist built by a Builder")
	}
	inv, err := d.Inverse(parent)
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := inv.Apply(child)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.SameStructure(parent); err != nil {
		t.Fatalf("inverse round trip: %v", err)
	}

	// Added names are kept up to the last named id only.
	named := &netlist.Delta{AddNets: []netlist.NewNet{
		{Name: "late", Cells: []netlist.CellID{1, 4}},
		{Cells: []netlist.CellID{2, 5}},
	}}
	child, _, err = named.Apply(parent)
	if err != nil {
		t.Fatal(err)
	}
	cn, cc, ca = netlist.Tables(child)
	if len(cn) != parent.NumNets()+1 || cn[len(cn)-1] != "late" || sameArray(pn, cn) {
		t.Fatalf("net names %q; want the parent's 5 copied and extended to the named net", cn)
	}
	if !sameArray(pc, cc) || !sameArray(pa, ca) {
		t.Error("a delta adding no cell copied the parent's cell name or area table")
	}
	if child.NetName(0) != "w0" || child.NetName(6) != "n6" {
		t.Errorf("names %q, %q", child.NetName(0), child.NetName(6))
	}

	// Unnamed unit cells on a parent with no names or areas stay bare.
	var b netlist.Builder
	b.AddCells(3)
	b.AddNet("", 0, 1, 2)
	bare := b.MustBuild()
	grow := &netlist.Delta{
		AddCells: []netlist.NewCell{{}, {Area: 1}},
		AddNets:  []netlist.NewNet{{Cells: []netlist.CellID{2, 3, 4}}},
	}
	child, _, err = grow.Apply(bare)
	if err != nil {
		t.Fatal(err)
	}
	if cn, cc, ca = netlist.Tables(child); cn != nil || cc != nil || ca != nil {
		t.Fatalf("unnamed unit cells gave %d net names, %d cell names, %d areas; want none", len(cn), len(cc), len(ca))
	}
}
