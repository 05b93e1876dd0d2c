// Package lint is a structural static-analysis pass over CSR netlists.
//
// A lint run walks a netlist once per enabled rule and reports
// Findings — structural defects such as multi-driven nets,
// combinational loops, or dangling logic. Every rule is O(pins) (the
// loop rule is O(cells + pins) via one iterative Tarjan sweep), so a
// million-cell netlist lints in seconds.
//
// Rules that reason about signal flow (drivers vs. sinks) require the
// netlist's optional direction annotation (netlist.Directed); on an
// undirected netlist those rules are skipped and the report says so —
// silence on an undirected netlist is not a clean bill of health.
//
// Findings carry a stable fingerprint derived from the rule id and
// the names (or, for anonymous objects, ids) of the anchoring
// cell/net. Fingerprints survive unrelated edits to the netlist, so
// they are the unit of suppression and report diffing.
package lint

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"tanglefind/internal/netlist"
)

// Severity ranks findings. The zero value is Info.
type Severity int8

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int8(s))
}

// ParseSeverity parses "info", "warning" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "info":
		return SevInfo, nil
	case "warning", "warn":
		return SevWarning, nil
	case "error":
		return SevError, nil
	}
	return 0, fmt.Errorf("lint: unknown severity %q (want info, warning or error)", s)
}

func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

func (s *Severity) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	v, err := ParseSeverity(str)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Finding is one reported defect. Cell/Net anchor the finding in the
// netlist (-1 when the axis does not apply); Fingerprint is a stable
// hex key for suppression and diffing (see the package comment).
type Finding struct {
	Rule        string         `json:"rule"`
	Severity    Severity       `json:"severity"`
	Cell        netlist.CellID `json:"cell"`
	Net         netlist.NetID  `json:"net"`
	CellName    string         `json:"cell_name,omitempty"`
	NetName     string         `json:"net_name,omitempty"`
	Msg         string         `json:"msg"`
	Fingerprint string         `json:"fingerprint"`
}

// Rule is one structural check. Implementations must be stateless:
// Check may be called concurrently on different passes.
type Rule interface {
	// ID is the stable rule name used in configs, fingerprints and
	// reports (kebab-case, e.g. "multi-driven-net").
	ID() string
	Severity() Severity
	// Doc is a one-line description for rule listings.
	Doc() string
	// NeedsDirection reports whether the rule requires the netlist's
	// driver annotation; such rules are skipped on undirected netlists.
	NeedsDirection() bool
	// Local reports whether every finding of this rule depends only on
	// the anchoring cell/net and its immediate pins. Local rules can be
	// re-checked on the dirty neighborhood after a delta; global rules
	// (loops, reachability) are re-run in full.
	Local() bool
	Check(p *Pass) []Finding
}

// Config selects and parameterizes rules. The zero value enables every
// registered rule with default thresholds.
type Config struct {
	// Enable, when non-empty, restricts the run to exactly these rule
	// ids. Disable removes rules from whatever Enable selected.
	Enable  []string `json:"enable,omitempty"`
	Disable []string `json:"disable,omitempty"`

	// MaxFanout is the net size at which high-fanout-net fires
	// (default 64).
	MaxFanout int `json:"max_fanout,omitempty"`
	// MinChain is the shortest buffer chain worth reporting
	// (default 3).
	MinChain int `json:"min_chain,omitempty"`
	// MaxFindingsPerRule truncates runaway rules (default 10000);
	// truncation is recorded in the report, never silent.
	MaxFindingsPerRule int `json:"max_findings_per_rule,omitempty"`

	// Name heuristics, matched case-insensitively. SizeOnlyPatterns are
	// substrings marking size-only/structural cells; TiePatterns mark
	// constant-source cells; SeqPrefixes mark sequential cells excluded
	// from combinational-loop analysis.
	SizeOnlyPatterns []string `json:"size_only_patterns,omitempty"`
	TiePatterns      []string `json:"tie_patterns,omitempty"`
	SeqPrefixes      []string `json:"seq_prefixes,omitempty"`
}

// normalized returns a copy with defaults filled in and all lists
// sorted and lower-cased, so equal configurations have equal cache
// keys regardless of how they were written.
func (c Config) normalized() Config {
	n := c
	if n.MaxFanout <= 0 {
		n.MaxFanout = 64
	}
	if n.MinChain <= 0 {
		n.MinChain = 3
	}
	if n.MaxFindingsPerRule <= 0 {
		n.MaxFindingsPerRule = 10000
	}
	if n.SizeOnlyPatterns == nil {
		n.SizeOnlyPatterns = []string{"size_only"}
	}
	if n.TiePatterns == nil {
		n.TiePatterns = []string{"tie", "const", "vcc", "gnd", "logic0", "logic1"}
	}
	if n.SeqPrefixes == nil {
		n.SeqPrefixes = []string{"dff", "sdff", "ff", "lat", "reg"}
	}
	n.Enable = canonList(n.Enable)
	n.Disable = canonList(n.Disable)
	n.SizeOnlyPatterns = canonList(n.SizeOnlyPatterns)
	n.TiePatterns = canonList(n.TiePatterns)
	n.SeqPrefixes = canonList(n.SeqPrefixes)
	return n
}

func canonList(in []string) []string {
	out := make([]string, 0, len(in))
	for _, s := range in {
		out = append(out, strings.ToLower(strings.TrimSpace(s)))
	}
	sort.Strings(out)
	return out
}

// CacheKey returns a canonical serialization of the config: two
// configs with the same key request the same lint run, so the key is
// safe to use (together with the netlist digest) as a result-cache
// key.
func (c Config) CacheKey() string {
	b, err := json.Marshal(c.normalized())
	if err != nil { // struct of plain fields; cannot fail
		panic(err)
	}
	return string(b)
}

func (c *Config) ruleEnabled(id string) bool {
	if len(c.Enable) > 0 {
		i := sort.SearchStrings(c.Enable, id)
		if i >= len(c.Enable) || c.Enable[i] != id {
			return false
		}
	}
	i := sort.SearchStrings(c.Disable, id)
	return i >= len(c.Disable) || c.Disable[i] != id
}

// SkippedRule records a rule that did not run and why.
type SkippedRule struct {
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

// RuleStat is per-rule accounting for one run.
type RuleStat struct {
	Rule      string `json:"rule"`
	Findings  int    `json:"findings"`
	Truncated int    `json:"truncated,omitempty"`
	Nanos     int64  `json:"nanos"`
}

// Report is the result of one lint run. Findings are sorted
// canonically (rule, then anchor ids, then fingerprint) so equal
// structural states produce byte-equal reports.
type Report struct {
	Findings []Finding     `json:"findings"`
	Skipped  []SkippedRule `json:"skipped,omitempty"`
	Rules    []RuleStat    `json:"rules"`

	// ConfigKey echoes Config.CacheKey of the run, letting LintDelta
	// verify a previous report matches the requested configuration.
	ConfigKey string `json:"config_key"`

	// Incremental is set by LintDelta; RecheckedCells is the dirty
	// neighborhood it re-examined for local rules (global rules are
	// always re-run in full).
	Incremental    bool `json:"incremental,omitempty"`
	RecheckedCells int  `json:"rechecked_cells,omitempty"`
}

// MaxSeverity returns the highest severity present, or ok=false for a
// clean report.
func (r *Report) MaxSeverity() (Severity, bool) {
	if len(r.Findings) == 0 {
		return 0, false
	}
	max := SevInfo
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// CountBySeverity returns finding counts indexed by severity.
func (r *Report) CountBySeverity() [3]int {
	var n [3]int
	for _, f := range r.Findings {
		n[f.Severity]++
	}
	return n
}

// Pass is the shared state handed to every rule of one run: the
// netlist, the normalized config, a lazily built cell-side direction
// view, and an optional scope restricting local rules to a dirty
// neighborhood (nil scope = whole netlist).
type Pass struct {
	nl  *netlist.Netlist
	cfg *Config
	dir *dirView

	scopeCells []netlist.CellID // sorted, nil = all
	scopeNets  []netlist.NetID  // sorted, nil = all
}

// Netlist returns the netlist under analysis.
func (p *Pass) Netlist() *netlist.Netlist { return p.nl }

// Config returns the normalized configuration of the run.
func (p *Pass) Config() *Config { return p.cfg }

// EachCell invokes f for every cell in scope, ascending.
func (p *Pass) EachCell(f func(netlist.CellID)) {
	if p.scopeCells != nil {
		for _, c := range p.scopeCells {
			f(c)
		}
		return
	}
	for c := 0; c < p.nl.NumCells(); c++ {
		f(netlist.CellID(c))
	}
}

// EachNet invokes f for every net in scope, ascending.
func (p *Pass) EachNet(f func(netlist.NetID)) {
	if p.scopeNets != nil {
		for _, n := range p.scopeNets {
			f(n)
		}
		return
	}
	for n := 0; n < p.nl.NumNets(); n++ {
		f(netlist.NetID(n))
	}
}

// dirView is the cell-side mirror of the net-side driver CSR: for each
// cell, the ascending run of nets it drives. Built once per pass in
// O(driver pins).
type dirView struct {
	outOff []int32
	outNet []netlist.NetID
}

func (p *Pass) dirv() *dirView {
	if p.dir != nil {
		return p.dir
	}
	nl := p.nl
	d := &dirView{
		outOff: make([]int32, nl.NumCells()+1),
		outNet: make([]netlist.NetID, nl.NumDriverPins()),
	}
	for n := 0; n < nl.NumNets(); n++ {
		for _, c := range nl.NetDrivers(netlist.NetID(n)) {
			d.outOff[c+1]++
		}
	}
	for c := 0; c < nl.NumCells(); c++ {
		d.outOff[c+1] += d.outOff[c]
	}
	cursor := make([]int32, nl.NumCells())
	// Visiting nets in ascending id order keeps each cell's run sorted.
	for n := 0; n < nl.NumNets(); n++ {
		for _, c := range nl.NetDrivers(netlist.NetID(n)) {
			d.outNet[d.outOff[c]+cursor[c]] = netlist.NetID(n)
			cursor[c]++
		}
	}
	p.dir = d
	return d
}

// OutNets returns the ascending run of nets driven by cell c. Only
// meaningful on a directed netlist.
func (p *Pass) OutNets(c netlist.CellID) []netlist.NetID {
	d := p.dirv()
	return d.outNet[d.outOff[c]:d.outOff[c+1]]
}

// OutDegree returns how many nets cell c drives.
func (p *Pass) OutDegree(c netlist.CellID) int { return len(p.OutNets(c)) }

// InDegree returns how many nets cell c sinks (pins minus driven).
func (p *Pass) InDegree(c netlist.CellID) int {
	return p.nl.CellDegree(c) - p.OutDegree(c)
}

// EachInNet invokes f for every net cell c sinks, ascending — the
// merge-complement of OutNets within the cell's pin run.
func (p *Pass) EachInNet(c netlist.CellID, f func(netlist.NetID)) {
	out := p.OutNets(c)
	at := 0
	for _, n := range p.nl.CellPins(c) {
		for at < len(out) && out[at] < n {
			at++
		}
		if at < len(out) && out[at] == n {
			continue
		}
		f(n)
	}
}

// cellKey and netKey are the fingerprint identities of netlist
// objects: the name when present, the id otherwise. Named objects keep
// their fingerprint across deltas even when ids shift.
func cellKey(nl *netlist.Netlist, c netlist.CellID) string {
	if s := nl.CellName(c); s != "" {
		return s
	}
	return fmt.Sprintf("c#%d", c)
}

func netKey(nl *netlist.Netlist, n netlist.NetID) string {
	if s := nl.NetName(n); s != "" {
		return s
	}
	return fmt.Sprintf("n#%d", n)
}

func fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, s := range parts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// NetFinding builds a finding anchored at a net.
func (p *Pass) NetFinding(r Rule, n netlist.NetID, msg string) Finding {
	return Finding{
		Rule:        r.ID(),
		Severity:    r.Severity(),
		Cell:        -1,
		Net:         n,
		NetName:     p.nl.NetName(n),
		Msg:         msg,
		Fingerprint: fingerprint(r.ID(), netKey(p.nl, n)),
	}
}

// CellFinding builds a finding anchored at a cell.
func (p *Pass) CellFinding(r Rule, c netlist.CellID, msg string) Finding {
	return Finding{
		Rule:        r.ID(),
		Severity:    r.Severity(),
		Cell:        c,
		Net:         -1,
		CellName:    p.nl.CellName(c),
		Msg:         msg,
		Fingerprint: fingerprint(r.ID(), cellKey(p.nl, c)),
	}
}

// GroupFinding builds a finding anchored at a cell but fingerprinted
// over an explicit member set (e.g. every cell of a loop), so the
// fingerprint tracks the group, not just its representative.
func (p *Pass) GroupFinding(r Rule, anchor netlist.CellID, members []string, msg string) Finding {
	parts := make([]string, 0, len(members)+1)
	parts = append(parts, r.ID())
	parts = append(parts, members...)
	return Finding{
		Rule:        r.ID(),
		Severity:    r.Severity(),
		Cell:        anchor,
		Net:         -1,
		CellName:    p.nl.CellName(anchor),
		Msg:         msg,
		Fingerprint: fingerprint(parts...),
	}
}

// Lint runs every enabled registered rule over the netlist.
func Lint(nl *netlist.Netlist, cfg Config) *Report {
	return LintWith(nl, cfg, Rules())
}

// LintWith is Lint with an explicit rule set, for callers bringing
// their own Rule implementations.
func LintWith(nl *netlist.Netlist, cfg Config, rules []Rule) *Report {
	norm := cfg.normalized()
	p := &Pass{nl: nl, cfg: &norm}
	rep := &Report{ConfigKey: cfg.CacheKey()}
	runRules(rules, rep, p, nil)
	sortFindings(rep.Findings)
	return rep
}

// runRules executes the enabled rules in order, appending to rep. Local
// rules run on scoped when it is non-nil — the incremental path's
// dirty neighborhood — and every other rule on full.
func runRules(rules []Rule, rep *Report, full, scoped *Pass) {
	for _, r := range rules {
		p := full
		if scoped != nil && r.Local() {
			p = scoped
		}
		if !p.cfg.ruleEnabled(r.ID()) {
			continue
		}
		if r.NeedsDirection() && !p.nl.Directed() {
			rep.Skipped = append(rep.Skipped, SkippedRule{
				Rule:   r.ID(),
				Reason: "netlist is undirected",
			})
			continue
		}
		start := time.Now()
		fs := r.Check(p)
		stat := RuleStat{Rule: r.ID(), Findings: len(fs)}
		if len(fs) > p.cfg.MaxFindingsPerRule {
			stat.Truncated = len(fs) - p.cfg.MaxFindingsPerRule
			fs = fs[:p.cfg.MaxFindingsPerRule]
		}
		stat.Nanos = time.Since(start).Nanoseconds()
		rep.Findings = append(rep.Findings, fs...)
		rep.Rules = append(rep.Rules, stat)
	}
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := &fs[i], &fs[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Net != b.Net {
			return a.Net < b.Net
		}
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		return a.Fingerprint < b.Fingerprint
	})
}
