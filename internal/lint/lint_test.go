package lint

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"tanglefind/internal/netlist"
	"tanglefind/internal/netlist/deltatest"
)

// ruleByID returns the builtin rule with the given id, or nil.
func ruleByID(id string) Rule {
	for _, r := range Rules() {
		if r.ID() == id {
			return r
		}
	}
	return nil
}

// TestGoldenPairs is the rule specification: every builtin rule must
// fire on its planted-defect netlist (anchored where the defect was
// planted) and stay silent on the repaired control.
func TestGoldenPairs(t *testing.T) {
	covered := map[string]bool{}
	for _, d := range deltatest.Defects() {
		d := d
		t.Run(d.Rule, func(t *testing.T) {
			covered[d.Rule] = true
			if ruleByID(d.Rule) == nil {
				t.Fatalf("defect pair names unknown rule %q", d.Rule)
			}
			pos := Lint(d.Pos, Config{})
			var hits []Finding
			for _, f := range pos.Findings {
				if f.Rule == d.Rule {
					hits = append(hits, f)
				}
			}
			if len(hits) == 0 {
				t.Fatalf("rule did not fire on its positive golden; report: %+v", pos.Findings)
			}
			for _, want := range d.WantAnchors {
				found := false
				for _, f := range hits {
					if f.CellName == want || f.NetName == want {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("no finding anchored at %q; got %+v", want, hits)
				}
			}
			neg := Lint(d.Neg, Config{})
			for _, f := range neg.Findings {
				if f.Rule == d.Rule {
					t.Errorf("rule fired on its negative golden: %+v", f)
				}
			}
		})
	}
	for _, r := range Rules() {
		if !covered[r.ID()] {
			t.Errorf("rule %q has no golden defect pair", r.ID())
		}
	}
}

// TestUndirectedSkips: direction-dependent rules must be skipped — and
// reported as skipped — on an undirected netlist, not silently pass.
func TestUndirectedSkips(t *testing.T) {
	var b netlist.Builder
	b.AddCells(4)
	b.AddNet("w0", 0, 1)
	b.AddNet("w1", 1, 2, 3)
	rep := Lint(b.MustBuild(), Config{})
	skipped := map[string]bool{}
	for _, s := range rep.Skipped {
		skipped[s.Rule] = true
	}
	for _, r := range Rules() {
		if r.NeedsDirection() != skipped[r.ID()] {
			t.Errorf("rule %s: NeedsDirection=%v but skipped=%v",
				r.ID(), r.NeedsDirection(), skipped[r.ID()])
		}
	}
	for _, f := range rep.Findings {
		if ruleByID(f.Rule).NeedsDirection() {
			t.Errorf("direction-dependent finding on undirected netlist: %+v", f)
		}
	}
}

func TestEnableDisable(t *testing.T) {
	d := deltatest.DefectByRule("floating-net")
	rep := Lint(d.Pos, Config{Disable: []string{"floating-net"}})
	for _, f := range rep.Findings {
		if f.Rule == "floating-net" {
			t.Fatalf("disabled rule fired: %+v", f)
		}
	}
	rep = Lint(d.Pos, Config{Enable: []string{"floating-net"}})
	if len(rep.Findings) == 0 {
		t.Fatal("enabled rule did not fire")
	}
	for _, f := range rep.Findings {
		if f.Rule != "floating-net" {
			t.Fatalf("rule outside the enable list fired: %+v", f)
		}
	}
}

func TestConfigCacheKey(t *testing.T) {
	a := Config{Enable: []string{"comb-loop", "floating-net"}, MaxFanout: 64}
	b := Config{Enable: []string{"floating-net", "comb-loop"}}
	if a.CacheKey() != b.CacheKey() {
		t.Errorf("order/default differences changed the cache key:\n%s\n%s",
			a.CacheKey(), b.CacheKey())
	}
	c := Config{Enable: []string{"floating-net"}}
	if a.CacheKey() == c.CacheKey() {
		t.Error("different rule selections share a cache key")
	}
}

// TestFingerprintStability: fingerprints key on names, so a finding's
// fingerprint must survive unrelated edits that shift ids around it.
func TestFingerprintStability(t *testing.T) {
	d := deltatest.DefectByRule("multi-driven-net")
	before := Lint(d.Pos, Config{Enable: []string{"multi-driven-net"}})
	if len(before.Findings) != 1 {
		t.Fatalf("want 1 finding, got %+v", before.Findings)
	}
	// Unrelated edit: bolt a fresh input cone onto the design.
	delta := &netlist.Delta{
		AddCells: []netlist.NewCell{{Name: "u_new"}},
		AddNets: []netlist.NewNet{{
			Name:    "n_new",
			Cells:   []netlist.CellID{netlist.CellID(d.Pos.NumCells()), 3},
			Drivers: []netlist.CellID{netlist.CellID(d.Pos.NumCells())},
		}},
	}
	child, _, err := delta.Apply(d.Pos)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	after := Lint(child, Config{Enable: []string{"multi-driven-net"}})
	if len(after.Findings) != 1 {
		t.Fatalf("want 1 finding after edit, got %+v", after.Findings)
	}
	if before.Findings[0].Fingerprint != after.Findings[0].Fingerprint {
		t.Errorf("fingerprint drifted across an unrelated edit: %s vs %s",
			before.Findings[0].Fingerprint, after.Findings[0].Fingerprint)
	}
}

func TestDeterministicReports(t *testing.T) {
	nl := randomNetlist(7, 400, 600, true)
	a, b := Lint(nl, Config{}), Lint(nl, Config{})
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatal("two runs over the same netlist disagree")
	}
}

// randomNetlist builds a pseudo-random netlist with a mix of
// combinational gates, flops, fanout and the occasional defect — raw
// material for the differential test. Undirected, it has the same pins
// with no drivers marked.
func randomNetlist(seed int64, cells, nets int, directed bool) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	var b netlist.Builder
	for i := 0; i < cells; i++ {
		switch rng.Intn(10) {
		case 0:
			b.AddCell("")
		case 1:
			b.AddCell(nameN("dff", i))
		default:
			b.AddCell(nameN("g", i))
		}
	}
	for i := 0; i < nets; i++ {
		drv := netlist.CellID(rng.Intn(cells))
		sinks := make([]netlist.CellID, 1+rng.Intn(3))
		for j := range sinks {
			sinks[j] = netlist.CellID(rng.Intn(cells))
		}
		if directed {
			b.AddDrivenNet(nameN("w", i), []netlist.CellID{drv}, sinks...)
		} else {
			b.AddNet(nameN("w", i), append(sinks, drv)...)
		}
	}
	return b.MustBuild()
}

func nameN(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// TestLintDeltaDifferential is the incremental oracle: across a chain
// of random deltas, LintDelta must report exactly what a from-scratch
// Lint of the patched netlist reports — the same findings, the same
// per-rule stats (merged totals, registry order; timings aside) and
// the same skipped rules. Under the defaults and on an undirected
// netlist (where the direction-dependent rules are skipped) every
// round is answered incrementally; a cap that truncates high-fanout-net
// in every round makes each one a full Lint, which still must agree.
func TestLintDeltaDifferential(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		directed    bool
		incremental bool
	}{
		{"defaults", Config{}, true, true},
		{"undirected", Config{MaxFanout: 4}, false, true},
		{"truncated local rule", Config{MaxFanout: 4, MaxFindingsPerRule: 5}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := deltatest.NewGen(42)
			nl := randomNetlist(11, 300, 450, tc.directed)
			prev := Lint(nl, tc.cfg)
			for round := 0; round < 25; round++ {
				d, kind := gen.RandomEdit(nl, nil)
				child, eff, err := d.Apply(nl)
				if err != nil {
					t.Fatalf("round %d (%s): Apply: %v", round, kind, err)
				}
				full := Lint(child, tc.cfg)
				inc := LintDelta(prev, nl, child, eff.Dirty, tc.cfg)
				if inc.Incremental != tc.incremental {
					t.Fatalf("round %d (%s): incremental = %v, want %v", round, kind, inc.Incremental, tc.incremental)
				}
				if !reflect.DeepEqual(inc.Findings, full.Findings) {
					t.Fatalf("round %d (%s): incremental and full lint disagree\nfull: %+v\ninc:  %+v",
						round, kind, full.Findings, inc.Findings)
				}
				if got, want := untimed(inc.Rules), untimed(full.Rules); !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d (%s): rule stats disagree\nfull: %+v\ninc:  %+v", round, kind, want, got)
				}
				if !reflect.DeepEqual(inc.Skipped, full.Skipped) {
					t.Fatalf("round %d (%s): skipped rules disagree\nfull: %+v\ninc:  %+v",
						round, kind, full.Skipped, inc.Skipped)
				}
				if tc.directed != (len(inc.Skipped) == 0) {
					t.Fatalf("round %d (%s): %d skipped rules on a directed=%v netlist",
						round, kind, len(inc.Skipped), tc.directed)
				}
				nl, prev = child, inc
			}
		})
	}
}

// untimed copies stats with their wall times zeroed.
func untimed(st []RuleStat) []RuleStat {
	out := slices.Clone(st)
	for i := range out {
		out[i].Nanos = 0
	}
	return out
}

// TestLintDeltaFallback: a stale or missing previous report must
// trigger an honest full re-lint, never a wrong incremental answer.
func TestLintDeltaFallback(t *testing.T) {
	nl := randomNetlist(3, 50, 80, true)
	rep := LintDelta(nil, nl, nl, nil, Config{})
	if rep.Incremental {
		t.Error("nil previous report still claimed an incremental run")
	}
	prev := Lint(nl, Config{})
	rep = LintDelta(prev, nl, nl, nil, Config{MaxFanout: 8})
	if rep.Incremental {
		t.Error("config mismatch still claimed an incremental run")
	}

	// A cap the parent fills exactly and the child passes: the merged
	// report would hold one finding more than Lint keeps.
	n := 0
	for _, f := range Lint(nl, Config{MaxFanout: 4}).Findings {
		if f.Rule == "high-fanout-net" {
			n++
		}
	}
	capped := Config{MaxFanout: 4, MaxFindingsPerRule: n}
	d := &netlist.Delta{AddNets: []netlist.NewNet{{Cells: []netlist.CellID{1, 2, 3, 4}, Drivers: []netlist.CellID{1}}}}
	child, eff, err := d.Apply(nl)
	if err != nil {
		t.Fatal(err)
	}
	rep = LintDelta(Lint(nl, capped), nl, child, eff.Dirty, capped)
	if rep.Incremental {
		t.Error("a local rule merged past its cap still claimed an incremental run")
	}
	if full := Lint(child, capped); !reflect.DeepEqual(rep.Findings, full.Findings) {
		t.Errorf("capped report differs from a full Lint\nfull: %+v\ngot:  %+v", full.Findings, rep.Findings)
	}
}

// TestCombLoopScale exercises the loop rule on a netlist in the
// hundred-thousand-cell range (the million-cell point runs as
// BenchmarkLintMillion) and checks findings are stable across runs.
func TestCombLoopScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large netlist")
	}
	nl := ringMill(200_000, 512)
	cfg := Config{Enable: []string{"comb-loop"}}
	a := Lint(nl, cfg)
	if len(a.Findings) != 512 {
		t.Fatalf("want 512 loop findings, got %d", len(a.Findings))
	}
	b := Lint(nl, cfg)
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatal("loop findings unstable across runs")
	}
}

// ringMill builds numCells cells arranged as `loops` disjoint directed
// rings plus straight chains for the rest — a worst-ish case for the
// SCC walk (every cell is on a long path).
func ringMill(numCells, loops int) *netlist.Netlist {
	var b netlist.Builder
	b.AddCells(numCells)
	per := numCells / loops
	net := 0
	for l := 0; l < loops; l++ {
		base := l * per
		for i := 0; i < per; i++ {
			from := netlist.CellID(base + i)
			to := netlist.CellID(base + (i+1)%per)
			b.AddDrivenNet(nameN("w", net), []netlist.CellID{from}, to)
			net++
		}
	}
	for c := loops * per; c < numCells; c++ {
		b.AddDrivenNet(nameN("t", c), []netlist.CellID{netlist.CellID(c - 1)}, netlist.CellID(c))
		net++
	}
	return b.MustBuild()
}

func BenchmarkLintMillion(b *testing.B) {
	nl := ringMill(1_000_000, 1024)
	cfg := Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := Lint(nl, cfg)
		if len(rep.Findings) == 0 {
			b.Fatal("expected findings")
		}
	}
}
