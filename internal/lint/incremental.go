package lint

import (
	"sort"

	"tanglefind/internal/netlist"
)

// LintDelta re-lints a netlist after a delta, reusing a previous
// report instead of re-walking the whole design for local rules.
//
// The contract mirrors full Lint exactly: for any (parent, child,
// dirty) produced by Delta.Apply, LintDelta returns the same findings,
// per-rule finding counts and skipped rules as Lint(child, cfg) — this
// is locked by a differential test. The split is:
//
//   - Local rules (whose findings depend only on the anchor's own
//     pins) are re-checked on the dirty neighborhood only; previous
//     findings anchored outside it are carried over verbatim.
//   - Global rules (comb-loop, dangling-cell, buffer-chain) are re-run
//     in full — a single edit can create or break a cycle arbitrarily
//     far away, and the report does not pretend otherwise. Their
//     previous findings are discarded, not merged.
//
// prev must be the report of Lint(parent, cfg) (or a LintDelta chain
// rooted there) under the same config; if prev is nil or was produced
// under a different config, LintDelta falls back to a full Lint. It
// also falls back when Config.MaxFindingsPerRule truncates a local
// rule, in prev or in the merged report: Lint keeps a prefix of the
// rule's findings that a merge of carried and re-checked findings
// cannot reproduce.
func LintDelta(prev *Report, parent, child *netlist.Netlist, dirty []netlist.CellID, cfg Config) *Report {
	key := cfg.CacheKey()
	if prev == nil || prev.ConfigKey != key {
		return Lint(child, cfg)
	}
	norm := cfg.normalized()
	localRules := make(map[string]bool)
	for _, r := range Rules() {
		if r.Local() {
			localRules[r.ID()] = true
		}
	}
	for _, st := range prev.Rules {
		if st.Truncated > 0 && localRules[st.Rule] {
			return Lint(child, cfg)
		}
	}

	// The affected scope: dirty cells plus every net incident to one in
	// either id space. Parent pins matter because a net emptied by the
	// delta is invisible from the child side of its former cells.
	cellSet := make(map[netlist.CellID]bool, len(dirty))
	netSet := make(map[netlist.NetID]bool)
	for _, c := range dirty {
		cellSet[c] = true
		if int(c) < child.NumCells() {
			for _, n := range child.CellPins(c) {
				netSet[n] = true
			}
		}
		if int(c) < parent.NumCells() {
			for _, n := range parent.CellPins(c) {
				if int(n) < child.NumNets() {
					netSet[n] = true
				}
			}
		}
	}
	scopeCells := make([]netlist.CellID, 0, len(cellSet))
	for c := range cellSet {
		if int(c) < child.NumCells() {
			scopeCells = append(scopeCells, c)
		}
	}
	scopeNets := make([]netlist.NetID, 0, len(netSet))
	for n := range netSet {
		scopeNets = append(scopeNets, n)
	}
	sort.Slice(scopeCells, func(i, j int) bool { return scopeCells[i] < scopeCells[j] })
	sort.Slice(scopeNets, func(i, j int) bool { return scopeNets[i] < scopeNets[j] })

	rep := &Report{
		ConfigKey:      key,
		Incremental:    true,
		RecheckedCells: len(scopeCells),
	}

	// Carry over local findings anchored outside the affected scope.
	// Anything global, in scope, or referring to an id the child no
	// longer has is dropped and recomputed below.
	for _, f := range prev.Findings {
		if !localRules[f.Rule] {
			continue
		}
		if f.Net >= 0 {
			if int(f.Net) >= child.NumNets() || netSet[f.Net] {
				continue
			}
		}
		if f.Cell >= 0 {
			if int(f.Cell) >= child.NumCells() || cellSet[f.Cell] {
				continue
			}
		}
		rep.Findings = append(rep.Findings, f)
	}

	// Local rules on the dirty neighborhood only, global rules from
	// scratch on a fresh unscoped pass, in registry order as in Lint.
	scoped := &Pass{nl: child, cfg: &norm, scopeCells: scopeCells, scopeNets: scopeNets}
	runRules(Rules(), rep, &Pass{nl: child, cfg: &norm}, scoped)
	// A local rule's stat counted its re-checked findings only; report
	// the merged total (carried plus re-checked, including any the
	// scoped pass cut off itself) as Lint would.
	count := make(map[string]int)
	for _, f := range rep.Findings {
		count[f.Rule]++
	}
	for i := range rep.Rules {
		st := &rep.Rules[i]
		if !localRules[st.Rule] {
			continue
		}
		st.Findings = count[st.Rule] + st.Truncated
		if st.Findings > norm.MaxFindingsPerRule {
			return Lint(child, cfg)
		}
	}

	sortFindings(rep.Findings)
	return rep
}
