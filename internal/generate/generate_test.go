package generate

import (
	"testing"

	"tanglefind/internal/metrics"
	"tanglefind/internal/netlist"
)

func TestRandomGraphProperties(t *testing.T) {
	rg, err := NewRandomGraph(RandomGraphSpec{
		Cells:  20_000,
		Blocks: []BlockSpec{{Size: 1000}, {Size: 3000}},
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	nl := rg.Netlist
	if err := nl.Validate(); err != nil {
		t.Fatalf("invalid netlist: %v", err)
	}
	if nl.NumCells() != 20_000 {
		t.Fatalf("cells = %d, want 20000", nl.NumCells())
	}
	if got := nl.AvgPins(); got < 3.0 || got > 6.0 {
		t.Errorf("AvgPins = %.2f, want a plausible 3-6", got)
	}
	// The planted blocks' cut must equal the spec'd boundary nets (the
	// generator's central guarantee) and be far below a random subset's.
	for i, block := range rg.Blocks {
		cut := nl.Cut(block)
		want := defaultExternalNets(len(block))
		if cut > want {
			t.Errorf("block %d cut = %d, want <= %d boundary nets", i, cut, want)
		}
		pins := nl.PinsIn(block)
		aC := float64(pins) / float64(len(block))
		if aC < 3.5 {
			t.Errorf("block %d internal density %.2f pins/cell, want >= 3.5", i, aC)
		}
	}
}

func TestRandomGraphRejectsBadSpecs(t *testing.T) {
	cases := []RandomGraphSpec{
		{Cells: 2},
		{Cells: 100, Blocks: []BlockSpec{{Size: 100}}},
		{Cells: 100, Blocks: []BlockSpec{{Size: 2}}},
	}
	for i, spec := range cases {
		if _, err := NewRandomGraph(spec); err == nil {
			t.Errorf("case %d: expected error for spec %+v", i, spec)
		}
	}
}

func TestHierarchicalRentBehavior(t *testing.T) {
	nl, err := NewHierarchical(HierSpec{Cells: 16384, Rent: 0.65, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("invalid netlist: %v", err)
	}
	if got := nl.AvgPins(); got < 2.5 || got > 5.5 {
		t.Errorf("AvgPins = %.2f, want 2.5-5.5", got)
	}
	// Random contiguous-id windows approximate hierarchy modules (ids
	// are assigned leaf-order), so their cut should follow Rent's rule:
	// markedly sublinear growth.
	cutAt := func(k int) int {
		members := make([]netlist.CellID, k)
		for i := 0; i < k; i++ {
			members[i] = netlist.CellID(i)
		}
		return nl.Cut(members)
	}
	c1, c2 := cutAt(1024), cutAt(4096)
	if c1 <= 0 || c2 <= 0 {
		t.Fatalf("degenerate cuts %d, %d", c1, c2)
	}
	ratio := float64(c2) / float64(c1)
	// Pure Rent scaling would give 4^0.65 ≈ 2.46; linear growth gives 4.
	if ratio > 3.5 {
		t.Errorf("cut growth ratio %.2f looks linear, want sublinear (Rent-like)", ratio)
	}
}

func TestStructuralFragmentsAreValid(t *testing.T) {
	frags := []Fragment{
		RippleCarryAdder(16),
		CarryLookaheadAdder(32),
		Decoder(6),
		MuxTree(64),
		ArrayMultiplier(8),
		DissolvedROM(500, 30, 1),
	}
	for _, f := range frags {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			if f.Cells < 4 {
				t.Fatalf("only %d cells", f.Cells)
			}
			nl, err := BuildStandalone(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := nl.Validate(); err != nil {
				t.Fatal(err)
			}
			// All nets must stay below the finder's big-net skip
			// threshold, or the structure would be invisible to
			// Phase I — the reason the generators buffer fanout.
			if st := nl.Stats(); st.MaxNetSize >= 20 {
				t.Errorf("max net size %d >= 20 (big-net threshold)", st.MaxNetSize)
			}
			// The fragment must be one connected component (via its
			// internal nets) so agglomeration can absorb all of it.
			if !connected(nl) {
				t.Error("fragment is not connected")
			}
		})
	}
}

func connected(nl *netlist.Netlist) bool {
	n := nl.NumCells()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	queue := []netlist.CellID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range nl.CellPins(c) {
			for _, o := range nl.NetPins(e) {
				if !seen[o] {
					seen[o] = true
					count++
					queue = append(queue, o)
				}
			}
		}
	}
	return count == n
}

func TestDissolvedROMDensity(t *testing.T) {
	f := DissolvedROM(2000, 36, 9)
	nl, err := BuildStandalone(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := nl.AvgPins(); got < 4.2 {
		t.Errorf("ROM density %.2f pins/cell, want >= 4.2 (complex gates)", got)
	}
	if len(f.OpenNets) != 36 {
		t.Errorf("open nets = %d, want 36", len(f.OpenNets))
	}
}

func TestISPDProxy(t *testing.T) {
	p, ok := ProfileByName("bigblue1")
	if !ok {
		t.Fatal("missing profile")
	}
	d, err := NewISPDProxy(p, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Structures) < 8 {
		t.Errorf("planted %d structures, want >= 8", len(d.Structures))
	}
	// Planted structures should score far below 1 under nGTL-S with a
	// typical Rent exponent — that is what makes them GTLs.
	nl := d.Netlist
	aG := nl.AvgPins()
	for i, s := range d.Structures {
		if len(s) < 200 {
			continue // tiny structures can score closer to ambient
		}
		cut := nl.Cut(s)
		score := metrics.NGTLScore(cut, len(s), 0.65, aG)
		if score > 0.6 {
			t.Errorf("structure %d (%s, %d cells) nGTL-S = %.3f, want < 0.6", i, d.Kinds[i], len(s), score)
		}
	}
}

func TestIndustrialProxy(t *testing.T) {
	d, err := NewIndustrialProxy(0.03, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Netlist.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Structures) != 5 {
		t.Fatalf("blocks = %d, want 5", len(d.Structures))
	}
	for i, s := range d.Structures {
		cut := d.Netlist.Cut(s)
		if cut > IndustrialBlockSizes[i].Cut {
			t.Errorf("block %d cut = %d, want <= %d", i, cut, IndustrialBlockSizes[i].Cut)
		}
	}
}
