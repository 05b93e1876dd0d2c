package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tanglefind"
)

var update = flag.Bool("update", false, "regenerate the committed testdata fixture")

// buildDirtyFixture is the source of truth for testdata/dirty.tfb: a
// directed netlist planting one instance of every builtin rule's
// defect. The committed .tfb and fingerprint golden are regenerated
// with `go test ./cmd/gtllint -update`.
func buildDirtyFixture() *tanglefind.Netlist {
	var b tanglefind.Builder
	pi := b.AddCell("pi_a")
	po := b.AddCell("po_x")

	// multi-driven-net: two gates fighting over n_contend.
	m1 := b.AddCell("u_md1")
	m2 := b.AddCell("u_md2")
	b.AddDrivenNet("n_md_in", []tanglefind.CellID{pi}, m1, m2)
	b.AddDrivenNet("n_contend", []tanglefind.CellID{m1, m2}, po)

	// undriven-net: all pins of n_undriven are sinks.
	u := b.AddCell("u_und")
	b.AddDrivenNet("n_und_in", []tanglefind.CellID{pi}, u)
	b.AddNet("n_undriven", u, po)

	// floating-net: a driven wire with nobody on the other end.
	b.AddDrivenNet("n_dangle_wire", []tanglefind.CellID{m1})

	// dangling-cell: u_dead's only fanout is a sink-less net.
	dead := b.AddCell("u_dead")
	b.AddDrivenNet("n_dead_in", []tanglefind.CellID{pi}, dead)
	b.AddDrivenNet("n_dead_out", []tanglefind.CellID{dead})

	// comb-loop: u_lp1 ⇄ u_lp2 with no sequential break.
	l1 := b.AddCell("u_lp1")
	l2 := b.AddCell("u_lp2")
	b.AddDrivenNet("n_lp_in", []tanglefind.CellID{pi}, l1)
	b.AddDrivenNet("n_lp_fwd", []tanglefind.CellID{l1}, l2, po)
	b.AddDrivenNet("n_lp_back", []tanglefind.CellID{l2}, l1)

	// const-tied: a tie cell as the sole driver of n_const.
	tie := b.AddCell("tie_hi")
	ct := b.AddCell("u_ct")
	b.AddDrivenNet("n_const", []tanglefind.CellID{tie}, ct)
	b.AddDrivenNet("n_ct_out", []tanglefind.CellID{ct}, po)

	// buffer-chain: three repeaters in a row.
	prev := pi
	for _, name := range []string{"u_rep1", "u_rep2", "u_rep3"} {
		buf := b.AddCell(name)
		b.AddDrivenNet("n_"+name, []tanglefind.CellID{prev}, buf)
		prev = buf
	}
	b.AddDrivenNet("n_rep_out", []tanglefind.CellID{prev}, po)

	// size-only: structural-by-name cell.
	so := b.AddCell("u_size_only_cap")
	b.AddDrivenNet("n_so_in", []tanglefind.CellID{pi}, so)

	// high-fanout-net: 1 driver + 63 sinks reaches the 64-pin default.
	hf := b.AddCell("u_hf_drv")
	b.AddDrivenNet("n_hf_in", []tanglefind.CellID{pi}, hf)
	sinks := make([]tanglefind.CellID, 63)
	for i := range sinks {
		sinks[i] = b.AddCell("po_hf" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	b.AddDrivenNet("n_hf_big", []tanglefind.CellID{hf}, sinks...)

	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	return nl
}

func fixtureFingerprints(rep *tanglefind.LintReport) []string {
	fps := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		fps = append(fps, f.Fingerprint+" "+f.Rule)
	}
	sort.Strings(fps)
	return fps
}

// TestDirtyFixture pins the committed known-dirty fixture: the .tfb on
// disk must match the in-code construction, every rule must fire on
// it, and the fingerprints must equal the committed golden exactly.
// CI additionally diffs `gtllint -fingerprints` output against the
// same golden.
func TestDirtyFixture(t *testing.T) {
	nl := buildDirtyFixture()
	rep := tanglefind.Lint(nl, tanglefind.LintConfig{})
	fps := fixtureFingerprints(rep)

	tfbPath := filepath.Join("testdata", "dirty.tfb")
	goldPath := filepath.Join("testdata", "dirty.fingerprints")
	if *update {
		var buf bytes.Buffer
		if err := nl.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tfbPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldPath, []byte(strings.Join(fps, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	fired := map[string]bool{}
	for _, f := range rep.Findings {
		fired[f.Rule] = true
	}
	for _, r := range tanglefind.LintRules() {
		if !fired[r.ID()] {
			t.Errorf("rule %s does not fire on the dirty fixture", r.ID())
		}
	}

	// The .tfb bytes themselves are pinned too: they are directed
	// (version 2) and named, and content digests hash exactly these.
	var inCode bytes.Buffer
	if err := nl.WriteBinary(&inCode); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(tfbPath)
	if err != nil {
		t.Fatalf("committed fixture unreadable (regenerate with -update): %v", err)
	}
	if !bytes.Equal(inCode.Bytes(), committed) {
		t.Errorf("in-code fixture serializes to %d bytes that differ from the committed %s (%d bytes)", inCode.Len(), tfbPath, len(committed))
	}
	disk, err := tanglefind.ReadNetlistFile(tfbPath)
	if err != nil {
		t.Fatalf("committed fixture unreadable (regenerate with -update): %v", err)
	}
	diskRep := tanglefind.Lint(disk, tanglefind.LintConfig{})
	gold, err := os.ReadFile(goldPath)
	if err != nil {
		t.Fatalf("committed golden unreadable (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSpace(string(gold)), "\n")
	if got := fixtureFingerprints(diskRep); !reflect.DeepEqual(got, want) {
		t.Errorf("fixture fingerprints drifted from the committed golden\ngot:  %v\nwant: %v", got, want)
	}
	if !reflect.DeepEqual(fps, want) {
		t.Errorf("in-code fixture disagrees with the committed golden (regenerate with -update)\ngot:  %v\nwant: %v", fps, want)
	}
}
