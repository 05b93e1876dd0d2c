// Command gtlexp regenerates the paper's evaluation: Tables 1-3 and
// Figures 2, 3, 5 plus the Figure 4/6 placement overlays and the
// Figure 1/7 cell-inflation congestion experiment.
//
// Usage:
//
//	gtlexp                      # everything at the small scale
//	gtlexp -scale full          # the paper's exact sizes (slow)
//	gtlexp -exp table1,fig5     # selected experiments only
//	gtlexp -outdir results      # also write PPM/PGM figure images
//	gtlexp -dump workloads      # save table workloads as .tfb binaries
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tanglefind"
	"tanglefind/internal/cliutil"
	"tanglefind/internal/experiments"
	"tanglefind/internal/generate"
)

func main() {
	var (
		scale   = flag.String("scale", "small", "workload scale: small, medium, full, or a numeric factor like 0.25")
		exps    = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,fig2,fig3,fig4,fig5,fig6,inflation,ablation,multilevel,incremental,parallel,hotpath,lint")
		seeds   = flag.Int("seeds", 0, "override finder seed count (0 = preset)")
		seed    = flag.Uint64("seed", 1, "RNG seed")
		workers = flag.String("workers", "", "engine workers: a count applied to every experiment, or a comma list / \"sweep\" (1,2,4,NumCPU) selecting the parallel experiment's sweep rows")
		outdir  = flag.String("outdir", "", "directory for figure image files (optional)")
		dump    = flag.String("dump", "", "directory to save the table workload netlists as .tfb binaries (optional)")
	)
	flag.Parse()

	cfg, err := parseScale(*scale)
	if err != nil {
		fatal(err)
	}
	cfg.Seed = *seed
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	sweep, err := parseWorkers(*workers, &cfg)
	if err != nil {
		fatal(err)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string) bool { return all || want[name] }
	// Ctrl-C / SIGTERM cancels the engine mid-run instead of killing the
	// process between experiments.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	start := time.Now()
	fmt.Printf("gtlexp: scale=%.3g seeds=%d seed=%d\n\n", cfg.Scale, cfg.Seeds, cfg.Seed)

	if *dump != "" {
		if err := dumpWorkloads(*dump, cfg, run); err != nil {
			fatal(err)
		}
	}

	if run("table1") {
		if _, err := experiments.Table1(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("table2") {
		if _, err := experiments.Table2(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("table3") {
		if _, err := experiments.Table3(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("fig2") {
		if _, err := experiments.Figure23(ctx, tanglefind.MetricNGTLS, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("fig3") {
		if _, err := experiments.Figure23(ctx, tanglefind.MetricGTLSD, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("fig5") {
		if _, err := experiments.Figure5(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("fig4") {
		if err := runOverlay(ctx, "bigblue1", cfg, *outdir); err != nil {
			fatal(err)
		}
	}
	if run("fig6") {
		if err := runOverlay(ctx, "industrial", cfg, *outdir); err != nil {
			fatal(err)
		}
	}
	if run("inflation") {
		if _, err := experiments.Inflation(ctx, cfg, os.Stdout, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("ablation") {
		if _, err := experiments.Ablation(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if run("multilevel") {
		rec, err := experiments.Multilevel(ctx, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		dumpRecord(*dump, "BENCH_multilevel.json", rec)
	}
	if run("incremental") {
		rec, err := experiments.Incremental(ctx, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		dumpRecord(*dump, "BENCH_incremental.json", rec)
	}
	if run("parallel") {
		rec, err := experiments.Parallel(ctx, cfg, sweep, os.Stdout)
		if err != nil {
			fatal(err)
		}
		dumpRecord(*dump, "BENCH_parallel.json", rec)
	}
	if run("hotpath") {
		rec, err := experiments.HotPath(ctx, cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		dumpRecord(*dump, "BENCH_hotpath.json", rec)
	}
	if run("lint") {
		if _, err := experiments.Lint(ctx, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}

func runOverlay(ctx context.Context, design string, cfg experiments.Config, outdir string) error {
	var ppm *os.File
	var err error
	if outdir != "" {
		if err = os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
		ppm, err = os.Create(filepath.Join(outdir, design+"_placement.ppm"))
		if err != nil {
			return err
		}
		defer ppm.Close()
	}
	if ppm != nil {
		_, err = experiments.Figure46(ctx, design, cfg, os.Stdout, ppm)
	} else {
		_, err = experiments.Figure46(ctx, design, cfg, os.Stdout, nil)
	}
	if err == nil && ppm != nil {
		fmt.Printf("wrote %s\n\n", ppm.Name())
	}
	return err
}

// dumpRecord ends an experiment's table and, with -dump, saves its
// record under dir as name, so perf trajectories can be compared
// across commits.
func dumpRecord(dir, name string, rec any) {
	fmt.Println()
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := experiments.WriteRecord(path, rec); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n\n", path)
}

// dumpWorkloads regenerates the table workloads for the selected
// experiments and saves them as .tfb binary netlists, so a finding or
// visualization run (gtlfind/gtlviz autodetect the format) can replay
// the exact experiment inputs without regenerating them.
func dumpWorkloads(dir string, cfg experiments.Config, run func(string) bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, nl *tanglefind.Netlist) error {
		path := filepath.Join(dir, name+".tfb")
		if err := nl.WriteFile(path); err != nil {
			return err
		}
		st := nl.Stats()
		fmt.Printf("dumped %s: %d cells, %d nets, %d pins\n", path, st.Cells, st.Nets, st.Pins)
		return nil
	}
	if run("table1") {
		for _, cs := range experiments.Table1Cases {
			rg, _, err := experiments.Table1Workload(cs, cfg)
			if err != nil {
				return err
			}
			if err := save("table1_"+cs.Name, rg.Netlist); err != nil {
				return err
			}
		}
	}
	if run("table2") {
		for _, p := range generate.ISPDProfiles {
			d, err := generate.NewISPDProxy(p, cfg.Scale, cfg.Seed*100+7)
			if err != nil {
				return err
			}
			if err := save("table2_"+p.Name, d.Netlist); err != nil {
				return err
			}
		}
	}
	if run("table3") {
		d, err := generate.NewIndustrialProxy(cfg.Scale, cfg.Seed*10+3)
		if err != nil {
			return err
		}
		if err := save("table3_industrial", d.Netlist); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}

// parseWorkers interprets the -workers flag: empty keeps the engine
// default and the standard sweep; a single count pins every
// experiment (including the parallel sweep's only row) to it; a comma
// list or "sweep" selects the parallel experiment's sweep rows while
// leaving the other experiments on the engine default.
func parseWorkers(s string, cfg *experiments.Config) ([]int, error) {
	switch s {
	case "":
		return nil, nil
	case "sweep":
		return experiments.DefaultWorkerSweep(), nil
	}
	var sweep []int
	for _, part := range strings.Split(s, ",") {
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers %q (want a count, a comma list like 1,2,4, or \"sweep\")", s)
		}
		sweep = append(sweep, w)
	}
	if len(sweep) == 1 {
		cfg.Workers = sweep[0]
	}
	return sweep, nil
}

func parseScale(s string) (experiments.Config, error) {
	switch s {
	case "small":
		return experiments.ScaleSmall, nil
	case "medium":
		return experiments.ScaleMedium, nil
	case "full":
		return experiments.ScaleFull, nil
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%g", &f); err != nil || f <= 0 || f > 1 {
		return experiments.Config{}, fmt.Errorf("bad scale %q (want small/medium/full or a factor in (0,1])", s)
	}
	cfg := experiments.ScaleSmall
	cfg.Scale = f
	return cfg, nil
}

func fatal(err error) {
	cliutil.Fatal("gtlexp", err)
}
