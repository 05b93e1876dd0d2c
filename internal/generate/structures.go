package generate

import (
	"fmt"

	"tanglefind/internal/ds"
)

// Fragment is a self-contained logic structure in local cell ids
// 0..Cells-1. InternalNets live wholly inside the structure; OpenNets
// are its I/O — when the fragment is embedded into a host netlist they
// also receive host pins, and their count is therefore the structure's
// net cut T(C). Structural generators model gates as cells and signals
// as nets, the same abstraction the paper's netlists use.
type Fragment struct {
	Name         string
	Cells        int
	InternalNets [][]int32
	OpenNets     [][]int32
}

// fragBuilder keeps fragment construction terse.
type fragBuilder struct{ f Fragment }

func (fb *fragBuilder) cell() int32 {
	id := int32(fb.f.Cells)
	fb.f.Cells++
	return id
}

func (fb *fragBuilder) cells(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = fb.cell()
	}
	return out
}

func (fb *fragBuilder) net(pins ...int32) { fb.f.InternalNets = append(fb.f.InternalNets, pins) }
func (fb *fragBuilder) open(pins ...int32) {
	fb.f.OpenNets = append(fb.f.OpenNets, pins)
}

// buffered connects driver to consumers through a buffer tree with the
// given branching factor, keeping every net at or below branch+1 pins —
// what synthesis does to high-fanout nets, and what keeps structure
// nets under the finder's big-net threshold.
func (fb *fragBuilder) buffered(driver int32, consumers []int32, branch int) {
	for len(consumers) > branch {
		var nextLevel []int32
		for i := 0; i < len(consumers); i += branch {
			end := i + branch
			if end > len(consumers) {
				end = len(consumers)
			}
			buf := fb.cell()
			fb.net(append([]int32{buf}, consumers[i:end]...)...)
			nextLevel = append(nextLevel, buf)
		}
		consumers = nextLevel
	}
	fb.net(append([]int32{driver}, consumers...)...)
}

// RippleCarryAdder builds a width-bit ripple-carry adder: five gates
// per bit (two XORs, two ANDs, an OR) chained through the carry nets.
func RippleCarryAdder(width int) Fragment {
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("rca%d", width)}}
	var prevCarry int32 = -1
	for i := 0; i < width; i++ {
		xa, xb, g, p, or := fb.cell(), fb.cell(), fb.cell(), fb.cell(), fb.cell()
		fb.open(xa, g)    // a_i
		fb.open(xa, g)    // b_i
		fb.net(xa, xb, p) // a_i ^ b_i
		fb.net(g, or)     // generate
		fb.net(p, or)     // propagate·carry
		if prevCarry < 0 {
			fb.open(xb, p) // carry-in
		} else {
			fb.net(prevCarry, xb, p) // carry chain
		}
		fb.open(xb) // sum_i
		prevCarry = or
	}
	fb.open(prevCarry) // carry-out
	return fb.f
}

// CarryLookaheadAdder builds a width-bit CLA with 4-bit lookahead
// groups. The lookahead gates take up to five inputs, giving the dense
// complex-gate pin profile the paper associates with tangled logic.
func CarryLookaheadAdder(width int) Fragment {
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("cla%d", width)}}
	var groupCarry int32 = -1
	for base := 0; base < width; base += 4 {
		bits := min(4, width-base)
		gs := fb.cells(bits) // generate gates
		ps := fb.cells(bits) // propagate gates
		ss := fb.cells(bits) // sum XORs
		for i := 0; i < bits; i++ {
			fb.open(gs[i], ps[i]) // a_i
			fb.open(gs[i], ps[i]) // b_i
			fb.net(ps[i], ss[i])  // p_i feeds the sum XOR
		}
		// Carry gates: c_{i+1} = g_i + p_i·g_{i-1} + ... + (Π p)·c_in.
		carries := fb.cells(bits)
		for i := 0; i < bits; i++ {
			pins := []int32{carries[i]}
			for j := 0; j <= i; j++ {
				pins = append(pins, gs[j], ps[j])
			}
			fb.net(pins...)
			if i+1 < bits {
				fb.net(carries[i], ss[i+1]) // carry into next sum
			}
		}
		if groupCarry < 0 {
			fb.open(ss[0], carries[bits-1]) // carry-in
		} else {
			fb.net(groupCarry, ss[0], carries[bits-1])
		}
		for i := 0; i < bits; i++ {
			fb.open(ss[i]) // sum outputs
		}
		groupCarry = carries[bits-1]
	}
	fb.open(groupCarry)
	return fb.f
}

// Decoder builds an nIn-to-2^nIn decoder with buffered literal
// distribution (branching 8), the classic tangled control structure.
func Decoder(nIn int) Fragment {
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("dec%d", nIn)}}
	outputs := 1 << nIn
	ands := fb.cells(outputs)
	for bit := 0; bit < nIn; bit++ {
		drvT, drvF := fb.cell(), fb.cell() // true/complement drivers
		fb.open(drvT, drvF)                // address input a_bit
		var consT, consF []int32
		for o := 0; o < outputs; o++ {
			if o&(1<<bit) != 0 {
				consT = append(consT, ands[o])
			} else {
				consF = append(consF, ands[o])
			}
		}
		fb.buffered(drvT, consT, 8)
		fb.buffered(drvF, consF, 8)
	}
	for _, a := range ands {
		fb.open(a) // decoded output line
	}
	return fb.f
}

// MuxTree builds a ways-input multiplexer as a binary tree of 2:1 mux
// gates with buffered select lines.
func MuxTree(ways int) Fragment {
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("mux%d", ways)}}
	level := make([]int32, 0, ways)
	for i := 0; i < ways; i++ {
		m := fb.cell()
		fb.open(m) // data input d_i
		level = append(level, m)
	}
	sel := 0
	for len(level) > 1 {
		var next []int32
		var selConsumers []int32
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			m := fb.cell()
			fb.net(level[i], m)
			fb.net(level[i+1], m)
			selConsumers = append(selConsumers, m)
			next = append(next, m)
		}
		if len(selConsumers) > 0 {
			drv := fb.cell()
			fb.open(drv) // select line s_level
			fb.buffered(drv, selConsumers, 8)
			sel++
		}
		level = next
	}
	fb.open(level[0]) // mux output
	return fb.f
}

// ArrayMultiplier builds a width×width array multiplier: a grid of
// partial-product AND gates feeding a carry-save adder array.
func ArrayMultiplier(width int) Fragment {
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("mult%d", width)}}
	// Partial products: pp[i][j] = a_i · b_j.
	pp := make([][]int32, width)
	aCons := make([][]int32, width)
	bCons := make([][]int32, width)
	for i := range aCons {
		aCons[i] = nil
		bCons[i] = nil
	}
	for i := 0; i < width; i++ {
		pp[i] = fb.cells(width)
		for j := 0; j < width; j++ {
			aCons[i] = append(aCons[i], pp[i][j])
			bCons[j] = append(bCons[j], pp[i][j])
		}
	}
	for i := 0; i < width; i++ {
		aDrv, bDrv := fb.cell(), fb.cell()
		fb.open(aDrv) // a_i
		fb.open(bDrv) // b_i
		fb.buffered(aDrv, aCons[i], 8)
		fb.buffered(bDrv, bCons[i], 8)
	}
	// Carry-save rows of full adders: row r sums pp row r+1 into the
	// running sum/carry vectors.
	sum := pp[0]
	for r := 1; r < width; r++ {
		fas := fb.cells(width)
		for j := 0; j < width; j++ {
			pins := []int32{fas[j], pp[r][j]}
			if j < len(sum) {
				pins = append(pins, sum[j])
			}
			if j > 0 {
				pins = append(pins, fas[j-1]) // carry from the right
			}
			fb.net(pins...)
		}
		sum = fas
	}
	for _, s := range sum {
		fb.open(s) // product bits
	}
	return fb.f
}

// DissolvedROM models the paper's industrial hotspot: a ROM block
// dissolved into dense random complex-gate logic (NAND4/AOI-style, ~5
// pins per cell) behind a small address/data interface. openNets is the
// interface width — it becomes the block's net cut; the industrial
// circuit's blocks had cuts of only 28-36 nets at 11K-32K cells.
func DissolvedROM(cells, openNets int, seed uint64) Fragment {
	if cells < 8 {
		cells = 8
	}
	if openNets < 2 {
		openNets = 2
	}
	rng := ds.NewRNG(seed + 0xd0d0)
	fb := &fragBuilder{f: Fragment{Name: fmt.Sprintf("rom%d", cells)}}
	ids := fb.cells(cells)
	// Connectivity spine.
	for i := 1; i < cells; i++ {
		fb.net(ids[i-1], ids[i])
	}
	// Dense internal mesh: target ~5 pins/cell total; the spine gave ~2.
	targetPins := 5 * cells
	pins := 2 * cells
	for pins < targetPins {
		sz := 3 + rng.Intn(4) // 3-6 pin complex-gate nets
		net := make([]int32, 0, sz)
		for len(net) < sz {
			c := ids[rng.Intn(cells)]
			dup := false
			for _, x := range net {
				if x == c {
					dup = true
					break
				}
			}
			if !dup {
				net = append(net, c)
			}
		}
		fb.net(net...)
		pins += sz
	}
	// Interface: address/data nets pinned on 1-2 boundary cells each.
	for i := 0; i < openNets; i++ {
		if rng.Float64() < 0.5 {
			fb.open(ids[rng.Intn(cells)])
		} else {
			fb.open(ids[rng.Intn(cells)], ids[rng.Intn(cells)])
		}
	}
	return fb.f
}
