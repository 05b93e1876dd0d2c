// Package generate synthesizes the workloads of the paper's evaluation:
// random hypergraphs with planted tangled blocks (Table 1, Figures 2-3,
// "generated based on Garbers et al."), Rent-rule-driven hierarchical
// circuits standing in for the ISPD 2005/06 placement benchmarks
// (Table 2, Figures 4-5), structural logic fragments (adders, decoders,
// MUX trees, dissolved ROMs) used to plant realistic tangled logic, and
// an industrial-circuit proxy with dissolved ROM blocks (Table 3,
// Figures 1, 6, 7).
//
// Everything is deterministic for a fixed Spec.Seed, so experiment
// tables regenerate bit-identically.
package generate

import (
	"fmt"
	"math"

	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// BlockSpec describes one planted tangled block in a random graph.
type BlockSpec struct {
	// Size is the number of cells in the block.
	Size int
	// InternalPins is the target average pin count inside the block;
	// it should exceed the background AvgPins so the block is denser
	// than its surroundings (complex-gate logic per the paper). 0
	// means DefaultBlockPins.
	InternalPins float64
	// ExternalNets is the number of boundary nets tying the block to
	// the rest of the circuit — this *is* the block's net cut T(C),
	// since block cells appear in no other external net. 0 means a
	// Rent-like default of round(0.4 · Size^0.6) nets, which lands the
	// planted blocks in the paper's reported score range (« 1).
	ExternalNets int
}

// DefaultBlockPins is the internal pin density used when
// BlockSpec.InternalPins is zero.
const DefaultBlockPins = 5.0

// RandomGraphSpec configures a Garbers-style random hypergraph with
// planted tangled blocks.
type RandomGraphSpec struct {
	// Cells is |V|.
	Cells int
	// AvgPins is the background average pin count A(G) target
	// (0 means 4.0, a typical standard-cell figure).
	AvgPins float64
	// Blocks are the planted GTLs; their sizes must sum to < Cells.
	Blocks []BlockSpec
	// Seed drives the deterministic RNG.
	Seed uint64
}

// RandomGraph is a generated hypergraph plus its ground truth.
type RandomGraph struct {
	Netlist *netlist.Netlist
	// Blocks holds the ground-truth membership of each planted block,
	// in the order of the spec.
	Blocks [][]netlist.CellID
}

// NewRandomGraph builds the random graph. Background cells connect only
// to background cells; block cells connect internally plus through
// exactly ExternalNets boundary nets, so each block's true cut is known
// a priori — the property Table 1's miss/over columns rely on.
func NewRandomGraph(spec RandomGraphSpec) (*RandomGraph, error) {
	if spec.Cells < 4 {
		return nil, fmt.Errorf("generate: need at least 4 cells, got %d", spec.Cells)
	}
	blockTotal := 0
	for i, b := range spec.Blocks {
		if b.Size < 4 {
			return nil, fmt.Errorf("generate: block %d too small (%d cells)", i, b.Size)
		}
		blockTotal += b.Size
	}
	if blockTotal >= spec.Cells {
		return nil, fmt.Errorf("generate: blocks use %d of %d cells; need background room", blockTotal, spec.Cells)
	}
	avg := spec.AvgPins
	if avg <= 0 {
		avg = 4.0
	}
	rng := ds.NewRNG(spec.Seed + 0x5eed)

	// Scatter block membership across the id space with a random
	// permutation so cell ids carry no structure.
	perm := rng.Perm(spec.Cells)
	var b netlist.Builder
	b.DropDegenerateNets = true
	b.AddCells(spec.Cells)

	out := &RandomGraph{Blocks: make([][]netlist.CellID, len(spec.Blocks))}
	next := 0
	take := func(n int) []netlist.CellID {
		ids := make([]netlist.CellID, n)
		for i := 0; i < n; i++ {
			ids[i] = netlist.CellID(perm[next])
			next++
		}
		return ids
	}
	var blockCells [][]netlist.CellID
	for i, bs := range spec.Blocks {
		cells := take(bs.Size)
		out.Blocks[i] = cells
		blockCells = append(blockCells, cells)
	}
	background := take(spec.Cells - blockTotal)

	// Background: small random nets among background cells until the
	// average pin count target is met.
	addRandomNets(&b, rng, background, avg, netSizeDist)

	// Blocks: a connectivity spine (Hamiltonian-ish 2-pin chain) to
	// guarantee the block is connected, then dense random internal
	// nets up to the internal pin target.
	for i, bs := range spec.Blocks {
		cells := blockCells[i]
		internal := bs.InternalPins
		if internal <= 0 {
			internal = DefaultBlockPins
		}
		for j := 1; j < len(cells); j++ {
			b.AddNet("", cells[j-1], cells[j])
		}
		// The spine contributed 2 pins per cell on average already.
		remaining := internal - 2
		if remaining > 0 {
			addRandomNets(&b, rng, cells, remaining, blockNetSizeDist)
		}
		// Boundary nets: 1-2 block pins + 1-3 background pins each.
		ext := bs.ExternalNets
		if ext <= 0 {
			ext = defaultExternalNets(bs.Size)
		}
		var pins []netlist.CellID // one scratch net; AddNet copies
		for e := 0; e < ext; e++ {
			pins = append(pins[:0], cells[rng.Intn(len(cells))])
			if rng.Float64() < 0.3 {
				pins = append(pins, cells[rng.Intn(len(cells))])
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				pins = append(pins, background[rng.Intn(len(background))])
			}
			b.AddNet("", pins...)
		}
	}
	nl, err := b.Build()
	if err != nil {
		return nil, err
	}
	out.Netlist = nl
	return out, nil
}

// defaultExternalNets follows Rent-like scaling so planted blocks score
// deep below 1 at every size the paper uses (500 … 40K cells).
func defaultExternalNets(size int) int {
	n := int(0.4 * math.Pow(float64(size), 0.6))
	if n < 4 {
		n = 4
	}
	return n
}

// netSizeDist mimics a synthesized netlist's net-size histogram:
// dominated by 2- and 3-pin nets.
var netSizeDist = []struct {
	size int
	cum  float64
}{
	{2, 0.55}, {3, 0.80}, {4, 0.92}, {5, 1.0},
}

// blockNetSizeDist is denser (complex NAND4/AOI-style gates).
var blockNetSizeDist = []struct {
	size int
	cum  float64
}{
	{2, 0.30}, {3, 0.60}, {4, 0.85}, {5, 0.95}, {6, 1.0},
}

// addRandomNets adds random nets over the pool until the pool's average
// pin count increases by avgPins (approximately; net sizes are drawn
// from dist).
func addRandomNets(b *netlist.Builder, rng *ds.RNG, pool []netlist.CellID, avgPins float64, dist []struct {
	size int
	cum  float64
}) {
	if len(pool) < 2 {
		return
	}
	targetPins := int(avgPins * float64(len(pool)))
	pins := 0
	var cells []netlist.CellID // one scratch net; AddNet copies
	for pins < targetPins {
		sz := drawSize(rng, dist)
		if sz > len(pool) {
			sz = len(pool)
		}
		cells = cells[:0]
		for len(cells) < sz {
			c := pool[rng.Intn(len(pool))]
			dup := false
			for _, x := range cells {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				cells = append(cells, c)
			}
		}
		b.AddNet("", cells...)
		pins += sz
	}
}

func drawSize(rng *ds.RNG, dist []struct {
	size int
	cum  float64
}) int {
	u := rng.Float64()
	for _, d := range dist {
		if u <= d.cum {
			return d.size
		}
	}
	return dist[len(dist)-1].size
}
