// Datapath example: the paper's motivating scenario — a synthesized
// netlist where high-level structures (adders, decoders, a dissolved
// ROM) lost their hierarchy labels during handoff. The finder recovers
// them from pure gate-level connectivity, and the score curve of a
// linear ordering shows the paper's Figure 2 shape.
//
// Expect the decoder to be found unreliably: its gates connect only
// through wide fanout (select/literal) nets, which is exactly the
// "structures driven by select lines" case the paper's future-work
// section says the metrics do not yet handle.
//
//	go run ./examples/datapath
package main

import (
	"fmt"
	"log"

	"tanglefind"
	"tanglefind/internal/ds"
	"tanglefind/internal/generate"
)

func main() {
	// A Rent-rule-obeying host circuit (what the rest of the chip
	// looks like at gate level)...
	b, hostOpen, err := generate.NewHierarchicalHost(generate.HierSpec{
		Cells: 24_000, Rent: 0.63, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	// ...with real logic structures spliced in, interfaces narrowed by
	// their consumer logic exactly as synthesis leaves them.
	rng := ds.NewRNG(99)
	type planted struct {
		name  string
		cells []tanglefind.CellID
	}
	var truth []planted
	embed := func(f tanglefind.Fragment) {
		cells := generate.Embed(b, f, hostOpen, rng)
		truth = append(truth, planted{f.Name, cells})
	}
	embed(generate.WithReducedInterface(generate.CarryLookaheadAdder(64), 10))
	embed(generate.WithReducedInterface(generate.Decoder(7), 8))
	embed(generate.WithReducedInterface(generate.MuxTree(256), 6))
	embed(generate.WithReducedInterface(generate.ArrayMultiplier(12), 8))
	embed(generate.DissolvedROM(3000, 36, 5))

	nl, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design: %d cells, %d nets; planted %d structures\n\n",
		nl.NumCells(), nl.NumNets(), len(truth))

	opt := tanglefind.DefaultOptions()
	opt.Seeds = 300 // the smallest structure covers ~1% of the cells
	opt.MaxOrderLen = 8000
	res, err := tanglefind.Find(nl, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finder: %d disjoint GTLs\n", len(res.GTLs))
	for _, p := range truth {
		in := make(map[tanglefind.CellID]bool, len(p.cells))
		for _, c := range p.cells {
			in[c] = true
		}
		best, hit := -1, 0
		for i, g := range res.GTLs {
			h := 0
			for _, c := range g.Members {
				if in[c] {
					h++
				}
			}
			if h > hit {
				hit, best = h, i
			}
		}
		if best < 0 {
			fmt.Printf("  %-8s (%5d cells): NOT FOUND\n", p.name, len(p.cells))
			continue
		}
		g := res.GTLs[best]
		fmt.Printf("  %-8s (%5d cells): found as %5d-cell GTL, cut %4d, GTL-SD %.4f (%.1f%% recovered)\n",
			p.name, len(p.cells), g.Size(), g.Cut, g.GTLSD, 100*float64(hit)/float64(len(p.cells)))
	}

	// Show the Figure 2-style score curve from a seed inside the ROM.
	fmt.Println("\nnGTL-S along an ordering grown from inside the dissolved ROM:")
	rom := truth[len(truth)-1].cells
	ord := tanglefind.GrowOrdering(nl, rom[0], 6000, tanglefind.DefaultOptions())
	curve := tanglefind.ScoreCurve(nl, ord, tanglefind.MetricNGTLS, nl.AvgPins())
	for k := 250; k <= ord.Len(); k += 250 {
		bar := int(curve.Scores[k-1] * 40)
		if bar > 60 {
			bar = 60
		}
		fmt.Printf("  size %5d  score %6.3f  %s\n", k, curve.Scores[k-1], stars(bar))
	}
}

func stars(n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = '*'
	}
	return string(s)
}
