package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// drainPool empties the shared worker-state pool, so the next run
// starts from freshly allocated states.
func drainPool() {
	idle.mu.Lock()
	idle.free = nil
	idle.mu.Unlock()
}

// resultDiff reports the first difference between two results in
// everything detection produces — GTLs, candidates, seed traces, Rent,
// per-level work and the incremental breakdown — comparing floats by
// their bits. Timings are ignored. It returns "" for identical results.
func resultDiff(want, got *Result) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(want.GTLs) != len(got.GTLs) {
		return fmt.Sprintf("GTL count %d vs %d", len(want.GTLs), len(got.GTLs))
	}
	for i := range want.GTLs {
		a, b := &want.GTLs[i], &got.GTLs[i]
		if a.Size() != b.Size() || a.Cut != b.Cut || a.Pins != b.Pins || a.Seed != b.Seed ||
			!same(a.Score, b.Score) || !same(a.NGTLS, b.NGTLS) || !same(a.GTLSD, b.GTLSD) || !same(a.Rent, b.Rent) {
			return fmt.Sprintf("GTL %d: %+v vs %+v", i, *a, *b)
		}
		for j := range a.Members {
			if a.Members[j] != b.Members[j] {
				return fmt.Sprintf("GTL %d member %d: %d vs %d", i, j, a.Members[j], b.Members[j])
			}
		}
	}
	if want.Candidates != got.Candidates || !same(want.Rent, got.Rent) || !same(want.AG, got.AG) {
		return fmt.Sprintf("candidates/rent/aG %d/%v/%v vs %d/%v/%v",
			want.Candidates, want.Rent, want.AG, got.Candidates, got.Rent, got.AG)
	}
	if len(want.Seeds) != len(got.Seeds) {
		return fmt.Sprintf("seed traces %d vs %d", len(want.Seeds), len(got.Seeds))
	}
	for i := range want.Seeds {
		a, b := &want.Seeds[i], &got.Seeds[i]
		if a.Seed != b.Seed || a.OrderLen != b.OrderLen || a.Extracted != b.Extracted || a.Size != b.Size || !same(a.Score, b.Score) {
			return fmt.Sprintf("trace %d: %+v vs %+v", i, *a, *b)
		}
	}
	if len(want.Levels) != len(got.Levels) {
		return fmt.Sprintf("levels %d vs %d", len(want.Levels), len(got.Levels))
	}
	for i := range want.Levels {
		a, b := want.Levels[i], got.Levels[i]
		a.ElapsedMS, b.ElapsedMS = 0, 0
		if a != b {
			return fmt.Sprintf("level %d: %+v vs %+v", i, a, b)
		}
	}
	if (want.Incremental == nil) != (got.Incremental == nil) ||
		want.Incremental != nil && *want.Incremental != *got.Incremental {
		return fmt.Sprintf("incremental %+v vs %+v", want.Incremental, got.Incremental)
	}
	return ""
}

// TestPooledStatesRebindDifferential is the rebind oracle: engines over
// netlists of different sizes (small → large → small) draw worker
// states from the one shared pool while flat, Levels 3 and
// FindIncremental runs execute concurrently at Workers 1 and 2, so
// states keep moving between netlists, growing and shrinking. Every
// result must equal, bit for bit, the same run on a fresh engine with
// freshly allocated states.
func TestPooledStatesRebindDifferential(t *testing.T) {
	type subject struct {
		nl, child *netlist.Netlist
		dirty     []netlist.CellID
	}
	var subjects []subject
	for i, cells := range []int{1500, 6000, 1000} {
		rg, err := generate.NewRandomGraph(generate.RandomGraphSpec{
			Cells:  cells,
			Blocks: []generate.BlockSpec{{Size: cells / 10}},
			Seed:   uint64(40 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nl := rg.Netlist
		n := netlist.CellID(nl.NumCells())
		d := &netlist.Delta{SetNets: []netlist.NetEdit{{
			Net: netlist.NetID(nl.NumNets() - 1), Cells: []netlist.CellID{n - 1, n - 2},
		}}}
		child, eff, err := d.Apply(nl)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{nl: nl, child: child, dirty: eff.Dirty})
	}

	type mode struct {
		name string
		set  func(*Options)
		incr bool
	}
	modes := []mode{
		{"flat", func(*Options) {}, false},
		{"levels3", func(o *Options) { o.Levels = 3; o.MinCoarseCells = 300 }, false},
		{"incremental", func(o *Options) { o.RecordIncremental = true }, true},
	}
	options := func(s subject, m mode, workers int) Options {
		opt := DefaultOptions()
		opt.Seeds = 8
		opt.MaxOrderLen = s.nl.NumCells() / 6
		opt.Workers = workers
		m.set(&opt)
		return opt
	}
	ctx := context.Background()
	mustFind := func(nl *netlist.Netlist, opt Options) *Result {
		t.Helper()
		f, err := NewFinder(nl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Find(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// References: every run on a fresh engine over an empty pool. An
	// incremental case records its previous run on the parent netlist
	// and replays it on the child.
	type key struct{ subj, mode, workers int }
	want := map[key]*Result{}
	prev := map[key]*Result{}
	for si, s := range subjects {
		for mi, m := range modes {
			for _, w := range []int{1, 2} {
				k := key{si, mi, w}
				opt := options(s, m, w)
				drainPool()
				if !m.incr {
					want[k] = mustFind(s.nl, opt)
					continue
				}
				prev[k] = mustFind(s.nl, opt)
				drainPool()
				f, err := NewFinder(s.child)
				if err != nil {
					t.Fatal(err)
				}
				if want[k], err = f.FindIncremental(ctx, opt, prev[k], s.dirty); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Shared engines, one per netlist, driven concurrently: each
	// goroutine walks small → large → small in its own mode and width.
	finders := make([]*Finder, len(subjects))
	children := make([]*Finder, len(subjects))
	for si, s := range subjects {
		var err error
		if finders[si], err = NewFinder(s.nl); err != nil {
			t.Fatal(err)
		}
		if children[si], err = NewFinder(s.child); err != nil {
			t.Fatal(err)
		}
	}
	drainPool()
	var wg sync.WaitGroup
	for mi, m := range modes {
		for _, w := range []int{1, 2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si, s := range subjects {
					k := key{si, mi, w}
					opt := options(s, m, w)
					var got *Result
					var err error
					if m.incr {
						got, err = children[si].FindIncremental(ctx, opt, prev[k], s.dirty)
					} else {
						got, err = finders[si].Find(ctx, opt)
					}
					if err != nil {
						t.Errorf("%s workers=%d on %d cells: %v", m.name, w, s.nl.NumCells(), err)
						return
					}
					if d := resultDiff(want[k], got); d != "" {
						t.Errorf("%s workers=%d on %d cells differs from a fresh engine: %s", m.name, w, s.nl.NumCells(), d)
					}
				}
			}()
		}
	}
	wg.Wait()
}
