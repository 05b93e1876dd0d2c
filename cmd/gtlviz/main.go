// Command gtlviz places a netlist, optionally runs the finder, and
// renders the placement (with GTL overlay) and the RUDY congestion map
// as ASCII art and PPM/PGM images.
//
// Usage:
//
//	gtlviz -in design.tfnet -out dir          # placement + congestion
//	gtlviz -in design.tfnet -find -out dir    # color detected GTLs
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tanglefind"
	"tanglefind/internal/cliutil"
	"tanglefind/internal/place"
	"tanglefind/internal/route"
	"tanglefind/internal/viz"
)

// config carries the parsed flags; main builds it from the command
// line and the tests build it directly.
type config struct {
	inPath  string
	auxPath string
	outDir  string
	find    bool
	seeds   int
	grid    int
	ascii   int
	seed    uint64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.inPath, "in", "", "input netlist (.tfnet or .tfb, autodetected)")
	flag.StringVar(&cfg.auxPath, "aux", "", "input netlist as an ISPD Bookshelf .aux file")
	flag.StringVar(&cfg.outDir, "out", "", "output directory for images (optional; ASCII always prints)")
	flag.BoolVar(&cfg.find, "find", false, "run the finder and overlay detected GTLs")
	flag.IntVar(&cfg.seeds, "seeds", 100, "finder seeds when -find is set")
	flag.IntVar(&cfg.grid, "grid", 64, "congestion grid resolution")
	flag.IntVar(&cfg.ascii, "ascii", 48, "ASCII render size")
	flag.Uint64Var(&cfg.seed, "seed", 1, "RNG seed")
	flag.Parse()
	if (cfg.inPath == "") == (cfg.auxPath == "") {
		fmt.Fprintln(os.Stderr, "gtlviz: provide exactly one of -in or -aux")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
		cliutil.Fatal("gtlviz", err)
	}
}

// run executes the whole flow, writing human-readable output to w.
func run(ctx context.Context, cfg config, w io.Writer) error {
	nl, err := cliutil.LoadNetlist(cfg.inPath, cfg.auxPath)
	if err != nil {
		return err
	}

	var groups [][]tanglefind.CellID
	if cfg.find {
		opt := tanglefind.DefaultOptions()
		opt.Seeds = cfg.seeds
		opt.RandSeed = cfg.seed
		finder, err := tanglefind.NewFinder(nl)
		if err != nil {
			return err
		}
		res, err := finder.Find(ctx, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "found %d GTLs\n", len(res.GTLs))
		for i := range res.GTLs {
			groups = append(groups, res.GTLs[i].Members)
		}
	}

	pl, err := place.Place(nl, place.Rect{}, place.Options{Seed: cfg.seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "placed %d cells, HPWL = %.0f\n\n", nl.NumCells(), place.HPWL(nl, pl))
	fmt.Fprintln(w, "placement (GTLs as digits):")
	if err := viz.PlacementASCII(pl, groups, cfg.ascii, w); err != nil {
		return err
	}

	m, err := route.Estimate(nl, pl, cfg.grid, cfg.grid)
	if err != nil {
		return err
	}
	m.SetCapacityRelative(1.25)
	fmt.Fprintln(w, "\ncongestion ('@' is >= 100% utilization):")
	if err := viz.CongestionASCII(m, w); err != nil {
		return err
	}

	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return err
		}
		writeImg := func(name string, fn func(*os.File) error) error {
			p := filepath.Join(cfg.outDir, name)
			f, err := os.Create(p)
			if err != nil {
				return err
			}
			if err := fn(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", p)
			return nil
		}
		if err := writeImg("placement.ppm", func(f *os.File) error {
			return viz.PlacementPPM(pl, groups, 768, f)
		}); err != nil {
			return err
		}
		if err := writeImg("congestion.pgm", func(f *os.File) error {
			return viz.CongestionPGM(m, f)
		}); err != nil {
			return err
		}
	}
	return nil
}
