// Package deltatest is the differential test harness that specifies
// incremental detection: random delta generators (net relabeling,
// reconnects, splits, merges, cell removal, planted-tangle insertion
// and deletion) plus the incremental-vs-full oracle — a
// core.FindIncremental run over a patched netlist must produce exactly
// what a from-scratch core.Find produces (same groups, scores within
// 1e-9), for every delta the generators can emit.
//
// The gate-level testing literature (Lee et al., PAPERS.md) argues
// mutation + differential oracles are how an incremental engine earns
// trust; this package is that argument executed in go test.
package deltatest

import (
	"fmt"
	"math"

	"tanglefind/internal/core"
	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Gen emits random deltas over a netlist, deterministically for a
// fixed seed.
type Gen struct {
	rng *ds.RNG
}

// NewGen returns a generator with its own RNG stream.
func NewGen(seed uint64) *Gen { return &Gen{rng: ds.NewRNG(seed)} }

func (g *Gen) randNet(nl *netlist.Netlist, minSize int) netlist.NetID {
	for tries := 0; tries < 64; tries++ {
		n := netlist.NetID(g.rng.Intn(nl.NumNets()))
		if nl.NetSize(n) >= minSize {
			return n
		}
	}
	return -1
}

func (g *Gen) randCell(nl *netlist.Netlist) netlist.CellID {
	return netlist.CellID(g.rng.Intn(nl.NumCells()))
}

// Relabel removes k nets and re-adds identical pin sets under fresh
// ids: a pure id-space churn whose detection outcome must be invariant
// — the sharpest check that incremental bookkeeping tracks identity,
// not position.
func (g *Gen) Relabel(nl *netlist.Netlist, k int) *netlist.Delta {
	d := &netlist.Delta{}
	seen := map[netlist.NetID]bool{}
	for i := 0; i < k; i++ {
		n := g.randNet(nl, 2)
		if n < 0 || seen[n] {
			continue
		}
		seen[n] = true
		d.RemoveNets = append(d.RemoveNets, n)
		d.AddNets = append(d.AddNets, netlist.NewNet{
			Name:  fmt.Sprintf("relabel%d", i),
			Cells: append([]netlist.CellID(nil), nl.NetPins(n)...),
		})
	}
	return d
}

// Reconnect rewires k nets: each keeps a random subset of its pins and
// gains 1-2 random cells.
func (g *Gen) Reconnect(nl *netlist.Netlist, k int) *netlist.Delta {
	d := &netlist.Delta{}
	seen := map[netlist.NetID]bool{}
	for i := 0; i < k; i++ {
		n := g.randNet(nl, 2)
		if n < 0 || seen[n] {
			continue
		}
		seen[n] = true
		pins := nl.NetPins(n)
		keep := make([]netlist.CellID, 0, len(pins)+2)
		for _, c := range pins {
			if g.rng.Intn(4) != 0 { // drop ~25%
				keep = append(keep, c)
			}
		}
		for j := 0; j < 1+g.rng.Intn(2); j++ {
			keep = append(keep, g.randCell(nl))
		}
		d.SetNets = append(d.SetNets, netlist.NetEdit{Net: n, Cells: keep})
	}
	return d
}

// Split moves half the pins of one wide net onto a fresh net.
func (g *Gen) Split(nl *netlist.Netlist) *netlist.Delta {
	d := &netlist.Delta{}
	n := g.randNet(nl, 4)
	if n < 0 {
		return d
	}
	pins := nl.NetPins(n)
	moved := append([]netlist.CellID(nil), pins[len(pins)/2:]...)
	if _, err := d.SplitNet(nl, n, moved, "split"); err != nil {
		return &netlist.Delta{}
	}
	return d
}

// Merge folds one random net into another.
func (g *Gen) Merge(nl *netlist.Netlist) *netlist.Delta {
	d := &netlist.Delta{}
	a, b := g.randNet(nl, 2), g.randNet(nl, 2)
	if a < 0 || b < 0 || a == b {
		return d
	}
	if err := d.MergeNets(nl, a, b); err != nil {
		return &netlist.Delta{}
	}
	return d
}

// RemoveCells disconnects k random cells (ECO rip-up).
func (g *Gen) RemoveCells(nl *netlist.Netlist, k int) *netlist.Delta {
	d := &netlist.Delta{}
	for i := 0; i < k; i++ {
		d.RemoveCells = append(d.RemoveCells, g.randCell(nl))
	}
	return d
}

// InsertTangle plants a small dense block by delta: size new cells,
// dense internal nets and a few boundary nets into the existing
// netlist — the "ECO drops in a dissolved ROM" scenario.
func (g *Gen) InsertTangle(nl *netlist.Netlist, size int) *netlist.Delta {
	d := &netlist.Delta{}
	base := netlist.CellID(nl.NumCells())
	for i := 0; i < size; i++ {
		d.AddCells = append(d.AddCells, netlist.NewCell{})
	}
	// Dense internal 3-pin nets: ~2.5 nets per cell.
	nets := size * 5 / 2
	for i := 0; i < nets; i++ {
		d.AddNets = append(d.AddNets, netlist.NewNet{Cells: []netlist.CellID{
			base + netlist.CellID(g.rng.Intn(size)),
			base + netlist.CellID(g.rng.Intn(size)),
			base + netlist.CellID(g.rng.Intn(size)),
		}})
	}
	// A few boundary nets tying the block in.
	for i := 0; i < 4; i++ {
		d.AddNets = append(d.AddNets, netlist.NewNet{Cells: []netlist.CellID{
			base + netlist.CellID(g.rng.Intn(size)),
			g.randCell(nl),
		}})
	}
	return d
}

// DeleteCells disconnects a contiguous run of cells — pointed at a
// planted block's ground truth it deletes the tangle.
func (g *Gen) DeleteCells(nl *netlist.Netlist, cells []netlist.CellID) *netlist.Delta {
	d := &netlist.Delta{}
	d.RemoveCells = append(d.RemoveCells, cells...)
	return d
}

// RandomEdit draws one delta of a random kind. blocks (may be nil) is
// the workload's ground truth, enabling tangle deletion.
func (g *Gen) RandomEdit(nl *netlist.Netlist, blocks [][]netlist.CellID) (*netlist.Delta, string) {
	kinds := 6
	if len(blocks) > 0 {
		kinds = 7
	}
	switch k := g.rng.Intn(kinds); k {
	case 0:
		return g.Relabel(nl, 1+g.rng.Intn(3)), "relabel"
	case 1:
		return g.Reconnect(nl, 1+g.rng.Intn(4)), "reconnect"
	case 2:
		return g.Split(nl), "split"
	case 3:
		return g.Merge(nl), "merge"
	case 4:
		return g.RemoveCells(nl, 1+g.rng.Intn(3)), "remove_cells"
	case 5:
		return g.InsertTangle(nl, 48+g.rng.Intn(32)), "insert_tangle"
	default:
		b := blocks[g.rng.Intn(len(blocks))]
		// Delete a slice of a planted block, not necessarily all of it.
		lo := g.rng.Intn(len(b) / 2)
		hi := lo + len(b)/4 + g.rng.Intn(len(b)/4)
		if hi > len(b) {
			hi = len(b)
		}
		return g.DeleteCells(nl, b[lo:hi]), "delete_cells_block"
	}
}

// DiffResults compares two finder results under the differential
// oracle: identical groups and traces, scores within tol. It returns
// nil when they match.
func DiffResults(want, got *core.Result, tol float64) error {
	if len(want.GTLs) != len(got.GTLs) {
		return fmt.Errorf("GTL count %d vs %d", len(want.GTLs), len(got.GTLs))
	}
	for i := range want.GTLs {
		a, b := &want.GTLs[i], &got.GTLs[i]
		if a.Size() != b.Size() || a.Cut != b.Cut || a.Pins != b.Pins || a.Seed != b.Seed {
			return fmt.Errorf("GTL %d shape differs: size %d/%d cut %d/%d pins %d/%d seed %d/%d",
				i, a.Size(), b.Size(), a.Cut, b.Cut, a.Pins, b.Pins, a.Seed, b.Seed)
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				return fmt.Errorf("GTL %d member %d: %d vs %d", i, j, a.Members[j], b.Members[j])
			}
		}
		if math.Abs(a.Score-b.Score) > tol || math.Abs(a.NGTLS-b.NGTLS) > tol || math.Abs(a.GTLSD-b.GTLSD) > tol || math.Abs(a.Rent-b.Rent) > tol {
			return fmt.Errorf("GTL %d scores differ beyond %g", i, tol)
		}
	}
	if want.Candidates != got.Candidates {
		return fmt.Errorf("candidates %d vs %d", want.Candidates, got.Candidates)
	}
	if len(want.Seeds) != len(got.Seeds) {
		return fmt.Errorf("seed traces %d vs %d", len(want.Seeds), len(got.Seeds))
	}
	for i := range want.Seeds {
		a, b := &want.Seeds[i], &got.Seeds[i]
		if a.Seed != b.Seed || a.OrderLen != b.OrderLen || a.Extracted != b.Extracted || a.Size != b.Size {
			return fmt.Errorf("trace %d differs: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.Score-b.Score) > tol {
			return fmt.Errorf("trace %d score %g vs %g", i, a.Score, b.Score)
		}
	}
	if math.Abs(want.Rent-got.Rent) > tol {
		return fmt.Errorf("rent %g vs %g", want.Rent, got.Rent)
	}
	return nil
}
