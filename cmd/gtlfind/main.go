// Command gtlfind runs the tangled-logic finder over a netlist file and
// prints the detected GTLs as a paper-style table.
//
// Usage:
//
//	gtlfind -in design.tfnet [-seeds 100] [-z 100000] [-metric gtlsd]
//	gtlfind -in design.tfb               # binary netlist (autodetected)
//	gtlfind -aux design.aux              # ISPD Bookshelf input
//	gtlfind -in design.tfnet -members    # also dump member cells
//	gtlfind -in design.tfb -delta eco.json               # detect on the patched netlist
//	gtlfind -in design.tfb -delta eco.json -incremental  # reuse the base run's seed state
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"tanglefind"
	"tanglefind/internal/cliutil"
	"tanglefind/internal/report"
)

func main() {
	var (
		inPath   = flag.String("in", "", "input netlist in .tfnet or .tfb format (autodetected)")
		auxPath  = flag.String("aux", "", "input netlist as an ISPD Bookshelf .aux file")
		seeds    = flag.Int("seeds", 100, "number of random seeds m")
		z        = flag.Int("z", 100_000, "maximum linear ordering length Z")
		metric   = flag.String("metric", "gtlsd", "driving metric: gtlsd or ngtls")
		ordering = flag.String("ordering", "weighted", "phase-I growth rule: weighted, mincut or bfs")
		thresh   = flag.Float64("threshold", 0.8, "candidate acceptance threshold on the score")
		randSeed = flag.Uint64("seed", 1, "RNG seed (fixed seed = reproducible run)")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		members  = flag.Bool("members", false, "dump each GTL's member cell names")
		noRefine = flag.Bool("no-refine", false, "disable Phase III refinement")
		progress = flag.Bool("progress", false, "report seed progress on stderr while running")
		timeout  = flag.Duration("timeout", 0, "abort the run after this duration (0 = none), keeping partial results")
		levels   = flag.Int("levels", 1, "multilevel pipeline depth: coarsen levels-1 times, detect on the coarsest, project + refine down (1 = flat)")
		minCC    = flag.Int("min-coarse-cells", 0, "stop coarsening below this many cells (0 = default floor)")
		radius   = flag.Int("refine-radius", 2, "boundary-refinement sweeps per level after projection (0 = project only)")
		deltaP   = flag.String("delta", "", "JSON delta patch file (ECO edit) applied to the input netlist before detection")
		incr     = flag.Bool("incremental", false, "with -delta: run the base netlist first (recording seed state), then detect the patched netlist incrementally and report the reuse breakdown")
	)
	flag.Parse()
	if (*inPath == "") == (*auxPath == "") {
		fmt.Fprintln(os.Stderr, "gtlfind: provide exactly one of -in or -aux")
		flag.Usage()
		os.Exit(2)
	}
	nl, err := cliutil.LoadNetlist(*inPath, *auxPath)
	if err != nil {
		fatal(err)
	}
	if *incr && *deltaP == "" {
		fatal(errors.New("-incremental requires -delta"))
	}
	var patched *tanglefind.Netlist
	var effect *tanglefind.DeltaEffect
	if *deltaP != "" {
		if patched, effect, err = applyDeltaFile(*deltaP, nl); err != nil {
			fatal(err)
		}
		fmt.Printf("delta: +%d/-%d cells, +%d/-%d nets, %d touched nets, %d dirty cells\n",
			effect.CellsAdded, effect.CellsRemoved, effect.NetsAdded, effect.NetsRemoved,
			effect.TouchedNets, len(effect.Dirty))
	}
	opt := tanglefind.DefaultOptions()
	opt.Seeds = *seeds
	opt.MaxOrderLen = *z
	opt.AcceptThreshold = *thresh
	opt.RandSeed = *randSeed
	opt.Workers = *workers
	opt.Refine = !*noRefine
	opt.Levels = *levels
	opt.MinCoarseCells = *minCC
	opt.RefineRadius = *radius
	if opt.Metric, err = tanglefind.ParseMetric(*metric); err != nil {
		fatal(err)
	}
	if opt.Ordering, err = tanglefind.ParseOrdering(*ordering); err != nil {
		fatal(err)
	}
	// The netlist the reported detection runs over: the patched one
	// when a delta is given, the input otherwise.
	target := nl
	if patched != nil {
		target = patched
	}

	st := target.Stats()
	fmt.Printf("netlist: %d cells, %d nets, %d pins (A_G = %.2f)\n",
		st.Cells, st.Nets, st.Pins, st.AvgPins)

	// Ctrl-C / SIGTERM (and -timeout) cancel the engine, which still
	// reports the GTLs of the seeds that completed.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	ctx, cancel := cliutil.WithTimeout(ctx, *timeout)
	defer cancel()
	if *progress {
		opt.Progress = func(p tanglefind.Progress) {
			fmt.Fprintf(os.Stderr, "\rgtlfind: seeds %d/%d, candidates %d", p.SeedsDone, p.SeedsTotal, p.Candidates)
			if p.SeedsDone == p.SeedsTotal {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var res *tanglefind.Result
	// reportNL is the netlist the reported result belongs to — the
	// patched target, except when an interrupted -incremental baseline
	// surfaces the base run's partial results instead.
	reportNL := target
	if *incr {
		// Baseline run over the pre-edit netlist records per-seed
		// state; the patched netlist is then detected incrementally —
		// the ECO loop a serving deployment runs per edit.
		baseOpt := opt
		baseOpt.RecordIncremental = true
		baseFinder, ferr := tanglefind.NewFinder(nl)
		if ferr != nil {
			fatal(ferr)
		}
		baseStart := time.Now()
		prev, ferr := baseFinder.Find(ctx, baseOpt)
		switch {
		case ferr != nil && (prev == nil || !errors.Is(ferr, ctx.Err())):
			fatal(ferr)
		case ferr != nil:
			// Interrupted during the baseline: surface its partial
			// results through the standard interrupted path below.
			res, err = prev, ferr
			reportNL = nl
		default:
			fmt.Printf("base run: %d GTLs in %s (state recorded)\n",
				len(prev.GTLs), time.Since(baseStart).Round(time.Millisecond))
			incrFinder, ferr := tanglefind.NewFinder(target)
			if ferr != nil {
				fatal(ferr)
			}
			res, err = incrFinder.FindIncremental(ctx, baseOpt, prev, effect.Dirty)
			if err == nil && res.Incremental != nil {
				ist := res.Incremental
				if ist.FullFallback {
					fmt.Printf("incremental: full fallback (%s)\n", ist.FallbackReason)
				} else {
					fmt.Printf("incremental: %d seeds replayed, %d rerun, %d/%d groups reused, %d cells reseeded\n",
						ist.ReusedSeeds, ist.RerunSeeds, ist.ReusedGroups, len(res.GTLs), ist.ReseededCells)
				}
			}
		}
	} else {
		finder, ferr := tanglefind.NewFinder(target)
		if ferr != nil {
			fatal(ferr)
		}
		res, err = finder.Find(ctx, opt)
	}
	interrupted := false
	if err != nil {
		if res == nil || !errors.Is(err, ctx.Err()) {
			fatal(err)
		}
		interrupted = true
		fmt.Fprintf(os.Stderr, "\ngtlfind: interrupted (%v); reporting partial results\n", err)
	}
	fmt.Printf("finder: %d seeds -> %d candidates -> %d disjoint GTLs in %s (Rent p ≈ %.3f)\n",
		len(res.Seeds), res.Candidates, len(res.GTLs), res.Elapsed.Round(time.Millisecond), res.Rent)
	for _, lv := range res.Levels {
		what := fmt.Sprintf("refined (+%d cells)", lv.RefineAdded)
		if lv.SeedsRun > 0 {
			what = fmt.Sprintf("detected (%d seeds, %d candidates)", lv.SeedsRun, lv.Candidates)
		}
		fmt.Printf("  level %d: %d cells, %d nets — %s in %.0fms\n",
			lv.Level, lv.Cells, lv.Nets, what, lv.ElapsedMS)
	}
	fmt.Println()

	tbl := report.New("Detected GTLs (best first)",
		"#", "Size", "Cut", "A_C", "nGTL-S", "GTL-SD", "Seed")
	for i, g := range res.GTLs {
		tbl.Row(i+1, g.Size(), g.Cut,
			float64(g.Pins)/float64(g.Size()), g.NGTLS, g.GTLSD, reportNL.CellName(g.Seed))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
	if *members {
		for i, g := range res.GTLs {
			fmt.Printf("\nGTL %d members:\n", i+1)
			for _, c := range g.Members {
				fmt.Printf("  %s\n", reportNL.CellName(c))
			}
		}
	}
	if interrupted {
		// The partial table above is still valid output, but scripts
		// must be able to tell a truncated run from a complete one.
		os.Exit(130)
	}
}

// applyDeltaFile loads a JSON delta patch from path and applies it to
// nl, returning the patched netlist and the edit's effect.
func applyDeltaFile(path string, nl *tanglefind.Netlist) (*tanglefind.Netlist, *tanglefind.DeltaEffect, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	d, err := tanglefind.ParseDelta(doc)
	if err != nil {
		return nil, nil, err
	}
	return d.Apply(nl)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gtlfind:", err)
	os.Exit(1)
}
