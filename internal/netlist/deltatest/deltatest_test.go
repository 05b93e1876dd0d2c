package deltatest

import (
	"context"
	"testing"

	"tanglefind/internal/core"
	"tanglefind/internal/generate"
	"tanglefind/internal/netlist"
)

// base is one recorded starting point sequences mutate from.
type base struct {
	name   string
	nl     *netlist.Netlist
	blocks [][]netlist.CellID
	opt    core.Options
	prev   *core.Result // recorded full run over nl
}

// buildBases generates Table-1-sized workloads (the paper's case 1/2
// geometries at test scale) and records one incremental-capable run
// over each; every differential sequence starts from one of them.
func buildBases(t testing.TB) []*base {
	t.Helper()
	specs := []struct {
		name   string
		cells  int
		blocks []int
		seed   uint64
	}{
		{"case1_like", 3000, []int{250}, 21},
		{"case2_like", 5000, []int{350, 200}, 22},
		{"case3_like", 4000, []int{300}, 23},
	}
	ctx := context.Background()
	var out []*base
	for _, s := range specs {
		spec := generate.RandomGraphSpec{Cells: s.cells, Seed: s.seed}
		maxBlock := 0
		for _, b := range s.blocks {
			spec.Blocks = append(spec.Blocks, generate.BlockSpec{Size: b})
			if b > maxBlock {
				maxBlock = b
			}
		}
		rg, err := generate.NewRandomGraph(spec)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Seeds = 24
		opt.MaxOrderLen = 2 * maxBlock
		opt.RecordIncremental = true
		f, err := core.NewFinder(rg.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := f.Find(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		if prev.IncrState == nil {
			t.Fatal("base run carries no incremental state")
		}
		out = append(out, &base{name: s.name, nl: rg.Netlist, blocks: rg.Blocks, opt: opt, prev: prev})
	}
	return out
}

// TestDifferentialOracle is the harness the whole delta pipeline is
// specified by: across > 200 randomized edit sequences (chains of 1-3
// deltas drawn from every generator kind), the incremental result on
// each patched netlist must match a from-scratch full run — same
// groups, scores within 1e-9 — and the chain feeds each incremental
// result forward as the next step's previous state. Both replay
// branches must run: seeds replayed verbatim on steps that keep A(G),
// and seeds re-scored on steps that change it.
func TestDifferentialOracle(t *testing.T) {
	const sequences = differentialSequences
	bases := buildBases(t)
	ctx := context.Background()

	totalSteps, rerunSeeds, fallbacks := 0, 0, 0
	// Replayed seeds and steps, by whether the step kept A(G).
	var reused, stepsBy [2]int
	kindCount := map[string]int{}
	for s := 0; s < sequences; s++ {
		b := bases[s%len(bases)]
		gen := NewGen(uint64(1000 + s))
		nl, prev := b.nl, b.prev
		steps := 1 + s%3
		for step := 0; step < steps; step++ {
			d, kind := gen.RandomEdit(nl, b.blocks)
			if d.Empty() {
				continue
			}
			kindCount[kind]++
			patched, eff, err := d.Apply(nl)
			if err != nil {
				t.Fatalf("seq %d step %d (%s): apply: %v", s, step, kind, err)
			}
			if err := patched.Validate(); err != nil {
				t.Fatalf("seq %d step %d (%s): invalid patched netlist: %v", s, step, kind, err)
			}

			fFull, err := core.NewFinder(patched)
			if err != nil {
				t.Fatalf("seq %d step %d: %v", s, step, err)
			}
			optFull := b.opt
			optFull.RecordIncremental = false
			full, err := fFull.Find(ctx, optFull)
			if err != nil {
				t.Fatalf("seq %d step %d (%s): full run: %v", s, step, kind, err)
			}

			fIncr, err := core.NewFinder(patched)
			if err != nil {
				t.Fatalf("seq %d step %d: %v", s, step, err)
			}
			incr, err := fIncr.FindIncremental(ctx, b.opt, prev, eff.Dirty)
			if err != nil {
				t.Fatalf("seq %d step %d (%s): incremental run: %v", s, step, kind, err)
			}
			if err := DiffResults(full, incr, 1e-9); err != nil {
				t.Fatalf("seq %d step %d (%s, %d dirty): differential oracle failed: %v",
					s, step, kind, len(eff.Dirty), err)
			}
			keep := 0
			if patched.AvgPins() == nl.AvgPins() {
				keep = 1
			}
			stepsBy[keep]++
			if st := incr.Incremental; st != nil {
				reused[keep] += st.ReusedSeeds
				rerunSeeds += st.RerunSeeds
				if st.FullFallback {
					fallbacks++
				}
			}
			totalSteps++
			nl, prev = patched, incr
		}
	}
	if totalSteps < sequences {
		t.Fatalf("only %d steps executed across %d sequences", totalSteps, sequences)
	}
	// The harness must exercise actual reuse on both branches, or it
	// proves nothing about the replay path.
	if reused[0] == 0 || reused[1] == 0 {
		t.Fatalf("seeds replayed: %d on A(G)-changing steps, %d on A(G)-keeping steps; both replay branches must run", reused[0], reused[1])
	}
	t.Logf("oracle held on %d sequences / %d steps: %d A(G)-changing steps replayed %d seeds, %d A(G)-keeping steps replayed %d; %d rerun, %d full fallbacks, kinds %v",
		sequences, totalSteps, stepsBy[0], reused[0], stepsBy[1], reused[1], rerunSeeds, fallbacks, kindCount)
}

// TestRelabelInvariance pins the strongest special case: pure net-id
// churn (remove + re-add identical pin sets) must leave every group
// and score exactly where it was, and the incremental run must agree.
func TestRelabelInvariance(t *testing.T) {
	bases := buildBases(t)
	b := bases[0]
	ctx := context.Background()
	gen := NewGen(99)
	d := gen.Relabel(b.nl, 4)
	patched, eff, err := d.Apply(b.nl)
	if err != nil {
		t.Fatal(err)
	}
	fFull, _ := core.NewFinder(patched)
	optFull := b.opt
	optFull.RecordIncremental = false
	full, err := fFull.Find(ctx, optFull)
	if err != nil {
		t.Fatal(err)
	}
	// Relabeling nets keeps every score: compare against the base run.
	if err := DiffResults(b.prev, full, 1e-9); err != nil {
		t.Fatalf("net relabeling changed detection output: %v", err)
	}
	fIncr, _ := core.NewFinder(patched)
	incr, err := fIncr.FindIncremental(ctx, b.opt, b.prev, eff.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffResults(full, incr, 1e-9); err != nil {
		t.Fatalf("incremental diverged on relabeling: %v", err)
	}
}

// FuzzIncrementalMatchesFull drives the differential oracle from fuzz
// input: it picks a base and a chain of RandomEdit deltas, and every
// step's incremental run, fed the previous step's result, must equal
// a from-scratch Find on the patched netlist.
func FuzzIncrementalMatchesFull(f *testing.F) {
	bases := buildBases(f)
	ctx := context.Background()
	f.Add(uint8(0), uint64(1), uint8(0))
	f.Add(uint8(1), uint64(7), uint8(1))
	f.Add(uint8(2), uint64(42), uint8(2))
	f.Fuzz(func(t *testing.T, pick uint8, seed uint64, chain uint8) {
		b := bases[int(pick)%len(bases)]
		gen := NewGen(seed)
		nl, prev := b.nl, b.prev
		optFull := b.opt
		optFull.RecordIncremental = false
		for step := 0; step < 1+int(chain)%3; step++ {
			d, kind := gen.RandomEdit(nl, b.blocks)
			if d.Empty() {
				continue
			}
			patched, eff, err := d.Apply(nl)
			if err != nil {
				t.Fatalf("step %d (%s): apply: %v", step, kind, err)
			}
			fFull, err := core.NewFinder(patched)
			if err != nil {
				t.Fatal(err)
			}
			full, err := fFull.Find(ctx, optFull)
			if err != nil {
				t.Fatal(err)
			}
			fIncr, err := core.NewFinder(patched)
			if err != nil {
				t.Fatal(err)
			}
			incr, err := fIncr.FindIncremental(ctx, b.opt, prev, eff.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			if err := DiffResults(full, incr, 1e-9); err != nil {
				t.Fatalf("step %d (%s, %d dirty): %v", step, kind, len(eff.Dirty), err)
			}
			nl, prev = patched, incr
		}
	})
}
