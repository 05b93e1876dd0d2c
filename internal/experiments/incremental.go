package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"tanglefind"
	"tanglefind/internal/netlist"
	"tanglefind/internal/netlist/deltatest"
	"tanglefind/internal/report"
)

// ---------------------------------------------------------------------
// Incremental detection vs full re-detection — the repo's ECO-loop
// evaluation, run over the Table 1 random-graph workload. A recorded
// baseline run detects the netlist once; an ECO-style delta then
// perturbs it, and the comparison is a from-scratch re-detection of
// the patched netlist against Finder.FindIncremental reusing the
// baseline's seed state. Results are verified identical (the
// deltatest differential oracle) before any timing is reported.
// ---------------------------------------------------------------------

// IncrementalCase describes one delta-vs-full comparison workload.
type IncrementalCase struct {
	Name   string
	Case   Table1Case // workload geometry (scaled by Config)
	Edit   string     // "site": one background location; "block": inside the planted tangle
	Rewire int        // nets rewired (pin-preserving)
}

// IncrementalCases compares the two ECO edit classes on the Table 1
// case 3 geometry. A "site" edit — the common ECO: a rewire at one
// location away from any tangle — leaves every tangle seed replayable.
// A "block" edit lands inside the planted tangle itself, forcing that
// tangle's (expensive, refined) seeds to re-run: the honest worst
// case, reported alongside rather than hidden.
var IncrementalCases = []IncrementalCase{
	{Name: "case3_site_edit", Case: Table1Cases[2], Edit: "site", Rewire: 2},
	{Name: "case3_block_edit", Case: Table1Cases[2], Edit: "block", Rewire: 4},
}

// IncrementalResult is one row of the delta-vs-full comparison.
type IncrementalResult struct {
	Name          string  `json:"name"`
	Cells         int     `json:"cells"`
	Pins          int     `json:"pins"`
	Seeds         int     `json:"seeds"`
	DirtyCells    int     `json:"dirty_cells"`
	BaseMS        float64 `json:"base_ms"` // recorded baseline run
	FullMS        float64 `json:"full_ms"` // from-scratch re-detection of the patched netlist
	IncrMS        float64 `json:"incremental_ms"`
	Speedup       float64 `json:"speedup"`
	ReusedSeeds   int     `json:"reused_seeds"`
	RerunSeeds    int     `json:"rerun_seeds"`
	ReusedGroups  int     `json:"reused_groups"`
	ReseededCells int     `json:"reseeded_cells"`
	Match         bool    `json:"match"` // differential oracle verdict
}

// incrementalOptions sizes the finder for the ECO loop: the ordering
// cap is kept at ~2x the largest expected tangle — enough margin for
// Phase II's interior-minimum test, while keeping each seed's read
// footprint (and therefore the reuse blast radius of an edit) tight.
func incrementalOptions(cfg Config, maxBlock, numCells int) tanglefind.Options {
	opt := cfg.finderOptions(maxBlock, numCells)
	z := 2 * maxBlock
	if z < 2000 {
		z = 2000
	}
	if z > numCells/2 {
		z = numCells / 2
	}
	opt.MaxOrderLen = z
	opt.RecordIncremental = true
	return opt
}

// blockEdit rewires k nets living entirely inside the planted block,
// moving one pin per net to another block cell (pin-preserving).
func blockEdit(nl *netlist.Netlist, block []netlist.CellID, k int) *netlist.Delta {
	inBlock := make(map[netlist.CellID]bool, len(block))
	for _, c := range block {
		inBlock[c] = true
	}
	d := &netlist.Delta{}
	for e, edited := 0, 0; e < nl.NumNets() && edited < k; e++ {
		pins := nl.NetPins(netlist.NetID(e))
		ok := len(pins) >= 3
		for _, c := range pins {
			if !inBlock[c] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		onNet := make(map[netlist.CellID]bool, len(pins))
		for _, c := range pins {
			onNet[c] = true
		}
		var repl netlist.CellID = -1
		for i := 0; i < len(block); i++ {
			if c := block[(edited*37+i)%len(block)]; !onNet[c] {
				repl = c
				break
			}
		}
		if repl < 0 {
			continue
		}
		d.SetNets = append(d.SetNets, netlist.NetEdit{
			Net:   netlist.NetID(e),
			Cells: append(pins[:len(pins)-1:len(pins)-1], repl),
		})
		edited++
		e += 50 // spread the edits across the block
	}
	return d
}

// siteEdit rewires k nets of one background cell (pin-preserving),
// modeling a localized ECO — buffer insertion, a fanout fix — away
// from any tangle.
func siteEdit(nl *netlist.Netlist, blocks [][]netlist.CellID, k int) *netlist.Delta {
	planted := make(map[netlist.CellID]bool)
	for _, b := range blocks {
		for _, c := range b {
			planted[c] = true
		}
	}
	var site netlist.CellID = -1
	for c := nl.NumCells() - 1; c >= 0; c-- {
		if !planted[netlist.CellID(c)] && nl.CellDegree(netlist.CellID(c)) >= k {
			site = netlist.CellID(c)
			break
		}
	}
	d := &netlist.Delta{}
	if site < 0 {
		return d
	}
	nets := nl.CellPins(site)
	for j := 0; j < k && j < len(nets); j++ {
		pins := nl.NetPins(nets[j])
		onNet := make(map[netlist.CellID]bool, len(pins))
		for _, c := range pins {
			onNet[c] = true
		}
		var repl netlist.CellID = -1
		for i := 1; i < nl.NumCells(); i++ {
			c := netlist.CellID((int(site) + i*97) % nl.NumCells())
			if !onNet[c] && !planted[c] {
				repl = c
				break
			}
		}
		if repl < 0 {
			continue
		}
		keep := append([]netlist.CellID(nil), pins[1:]...)
		d.SetNets = append(d.SetNets, netlist.NetEdit{Net: nets[j], Cells: append(keep, repl)})
	}
	return d
}

// IncrementalRun executes one case: recorded baseline, ECO delta,
// then the timed full-vs-incremental comparison with a differential
// check.
func IncrementalRun(ctx context.Context, cs IncrementalCase, cfg Config) (*IncrementalResult, error) {
	rg, _, err := Table1Workload(cs.Case, cfg)
	if err != nil {
		return nil, fmt.Errorf("incremental %s: %w", cs.Name, err)
	}
	nl := rg.Netlist
	maxBlock := 0
	for _, b := range rg.Blocks {
		if len(b) > maxBlock {
			maxBlock = len(b)
		}
	}
	opt := incrementalOptions(cfg, maxBlock, nl.NumCells())
	out := &IncrementalResult{
		Name:  cs.Name,
		Cells: nl.NumCells(),
		Pins:  nl.NumPins(),
		Seeds: opt.Seeds,
	}

	base, err := tanglefind.NewFinder(nl)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	prev, err := base.Find(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("incremental %s: baseline run: %w", cs.Name, err)
	}
	out.BaseMS = float64(time.Since(start)) / float64(time.Millisecond)

	var d *netlist.Delta
	switch cs.Edit {
	case "block":
		d = blockEdit(nl, rg.Blocks[0], cs.Rewire)
	default:
		d = siteEdit(nl, rg.Blocks, cs.Rewire)
	}
	if d.Empty() {
		return nil, fmt.Errorf("incremental %s: could not construct the %s edit", cs.Name, cs.Edit)
	}
	patched, eff, err := d.Apply(nl)
	if err != nil {
		return nil, fmt.Errorf("incremental %s: apply: %w", cs.Name, err)
	}
	out.DirtyCells = len(eff.Dirty)

	fullOpt := opt
	fullOpt.RecordIncremental = false
	fFull, err := tanglefind.NewFinder(patched)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	full, err := fFull.Find(ctx, fullOpt)
	if err != nil {
		return nil, fmt.Errorf("incremental %s: full re-detection: %w", cs.Name, err)
	}
	out.FullMS = float64(time.Since(start)) / float64(time.Millisecond)

	fIncr, err := tanglefind.NewFinder(patched)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	incr, err := fIncr.FindIncremental(ctx, opt, prev, eff.Dirty)
	if err != nil {
		return nil, fmt.Errorf("incremental %s: incremental run: %w", cs.Name, err)
	}
	out.IncrMS = float64(time.Since(start)) / float64(time.Millisecond)
	if out.IncrMS > 0 {
		out.Speedup = out.FullMS / out.IncrMS
	}
	if st := incr.Incremental; st != nil {
		out.ReusedSeeds = st.ReusedSeeds
		out.RerunSeeds = st.RerunSeeds
		out.ReusedGroups = st.ReusedGroups
		out.ReseededCells = st.ReseededCells
	}
	out.Match = deltatest.DiffResults(full, incr, 1e-9) == nil
	if !out.Match {
		return nil, fmt.Errorf("incremental %s: differential oracle failed: %v",
			cs.Name, deltatest.DiffResults(full, incr, 1e-9))
	}
	return out, nil
}

// Incremental runs every comparison case, renders the table and
// returns the record gtlexp -dump saves.
func Incremental(ctx context.Context, cfg Config, w io.Writer) (*IncrementalRecord, error) {
	tbl := report.New("Incremental vs full re-detection (ECO deltas)",
		"Case", "|V|", "#seeds", "Dirty", "Base ms", "Full ms", "Incr ms", "Speedup", "Reused", "Rerun", "Match")
	var results []*IncrementalResult
	for _, cs := range IncrementalCases {
		r, err := IncrementalRun(ctx, cs, cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		tbl.Row(r.Name, r.Cells, r.Seeds, r.DirtyCells,
			fmt.Sprintf("%.0f", r.BaseMS), fmt.Sprintf("%.0f", r.FullMS), fmt.Sprintf("%.0f", r.IncrMS),
			fmt.Sprintf("%.2fx", r.Speedup), r.ReusedSeeds, r.RerunSeeds, r.Match)
	}
	if w != nil {
		if err := tbl.Render(w); err != nil {
			return nil, err
		}
	}
	return &IncrementalRecord{
		Scale:   cfg.Scale,
		Seeds:   cfg.Seeds,
		Workers: cfg.ResolvedWorkers(),
		CPUs:    runtime.GOMAXPROCS(0),
		Results: results,
	}, nil
}

// IncrementalRecord is the serialized ECO-loop record gtlexp -dump
// writes as BENCH_incremental.json.
type IncrementalRecord struct {
	Scale   float64              `json:"scale"`
	Seeds   int                  `json:"seeds"`
	Workers int                  `json:"workers"` // resolved engine worker count (never 0)
	CPUs    int                  `json:"cpus"`    // runtime.GOMAXPROCS(0) at measurement time
	Results []*IncrementalResult `json:"results"`
}
