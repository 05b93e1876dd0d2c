package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"

	"tanglefind"
)

// The service under test is sized for two cores: two job workers
// sharing a budget of two engine goroutines, and every find asks for
// both.
const (
	jobWorkers    = 2
	engineWorkers = 2
)

// spec sizes one workload. Every workload is a Garbers random graph
// with planted tangled blocks (the generator's ground truth checks
// detection quality), uploaded to and detected by the in-process
// durable service.
type spec struct {
	Name      string
	Cells     int
	Blocks    int // planted blocks, each BlockSize cells
	BlockSize int
	// WideNets adds bus nets of 16-48 pins inside every block and in
	// the background, plus clock/reset/scan-style nets of Cells/64
	// pins each, so the engine's wide-net paths do real work.
	WideNets bool
	Seeds    int
	OrderLen int // MaxOrderLen (Z)
	Levels   int
	// Netlists is how many independently generated netlists one run
	// cycles through. How much work a find does varies between random
	// graphs; spreading a run over several keeps its median steady
	// across seeds.
	Netlists int
	// Serve selects the mixed closed loop of two clients (ingest,
	// find, resubmit, ECO, lint) instead of one client uploading a new
	// revision of a netlist and detecting it, op after op.
	Serve bool
	// TailPct is the percentile of op latency reported as tail_ms: the
	// highest with at least ten of a 25-second window's ops beyond it.
	TailPct int
}

// Seeds give every planted block eight seeds. The graph sizes keep one
// find op around a second on two cores, so a window holds a median over
// a few dozen ops; 20 to 30 find_* ops leave ten beyond the median only,
// while serve_eco's 700 to 1000 ops leave 70 or more beyond p90.
var specs = []spec{
	{Name: "find_flat", Cells: 24_000, Blocks: 4, BlockSize: 1200, Seeds: 160, OrderLen: 4800, Levels: 1, Netlists: 12, TailPct: 50},
	{Name: "find_widenet", Cells: 24_000, Blocks: 4, BlockSize: 1200, WideNets: true, Seeds: 160, OrderLen: 4800, Levels: 1, Netlists: 12, TailPct: 50},
	{Name: "find_multilevel", Cells: 80_000, Blocks: 4, BlockSize: 4000, Seeds: 160, OrderLen: 8000, Levels: 4, Netlists: 8, TailPct: 50},
	{Name: "serve_eco", Cells: 20_000, Blocks: 2, BlockSize: 1000, Seeds: 32, OrderLen: 2000, Levels: 1, Netlists: 1, Serve: true, TailPct: 90},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options are the finder options every job and the reference run use.
func (s spec) options(seed uint64) tanglefind.Options {
	o := tanglefind.DefaultOptions()
	o.Seeds = s.Seeds
	o.MaxOrderLen = s.OrderLen
	o.Levels = s.Levels
	o.Workers = engineWorkers
	o.RandSeed = seed
	return o
}

// revTag names net 0 of every generated netlist. Patching its digits
// yields a new revision of the netlist: different bytes and digest,
// identical circuit, so detection must return identical groups.
const revTag = "rev-000000"

// input is one generated netlist as the service sees it.
type input struct {
	tfb     []byte              // .tfb bytes of revision 0
	revAt   int                 // offset of revTag's digits in tfb
	nl      *tanglefind.Netlist // tfb read back, as gtlfind loads it
	blocks  [][]tanglefind.CellID
	planted []bool // by cell: inside a planted block
	info    inputInfo
}

// inputInfo describes the generated netlist in result records.
type inputInfo struct {
	Cells        int     `json:"cells"`
	Nets         int     `json:"nets"`
	Pins         int     `json:"pins"`
	Blocks       int     `json:"planted_blocks"`
	WidePinShare float64 `json:"wide_pin_share"` // share of pins on nets of >= 16 pins
}

// makeInput generates one of the workload's netlists from seed, writes
// it as .tfb and reads it back.
func makeInput(ctx context.Context, s spec, seed uint64, tr *tracer) (*input, error) {
	rs := tanglefind.RandomGraphSpec{Cells: s.Cells, Seed: seed}
	for range s.Blocks {
		rs.Blocks = append(rs.Blocks, tanglefind.BlockSpec{Size: s.BlockSize})
	}
	_, end := tr.begin(ctx, "bench.generate")
	rg, err := tanglefind.NewRandomGraph(rs)
	end()
	if err != nil {
		return nil, err
	}

	// Number the cells the way synthesis output grouped by module does:
	// each planted block gets a contiguous id range, with the background
	// in the gaps between blocks. The engine draws one seed per equal
	// slice of the id range, so every block receives the same number of
	// seeds on every generator seed, which keeps the work of a find
	// nearly independent of the seed.
	id := hierarchicalIDs(rg.Netlist.NumCells(), rg.Blocks)
	for i, blk := range rg.Blocks {
		rg.Blocks[i] = relabel(id, blk)
	}
	var b tanglefind.Builder
	b.AddCells(rg.Netlist.NumCells())
	for n := range rg.Netlist.NumNets() {
		name := ""
		if n == 0 {
			name = revTag
		}
		b.AddNet(name, relabel(id, rg.Netlist.NetPins(tanglefind.NetID(n)))...)
	}
	if s.WideNets {
		addWideNets(&b, rand.New(rand.NewPCG(seed, 0x77de)), rg.Blocks, rg.Netlist.NumCells())
	}
	_, end = tr.begin(ctx, "netlist.build")
	nl, err := b.Build()
	end()
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	_, end = tr.begin(ctx, "netlist.tfb_write")
	err = nl.WriteBinary(&buf)
	end()
	if err != nil {
		return nil, err
	}
	tfb := buf.Bytes()
	_, end = tr.begin(ctx, "netlist.tfb_read")
	back, err := tanglefind.ReadNetlist(bytes.NewReader(tfb))
	end()
	if err != nil {
		return nil, err
	}
	at := bytes.Index(tfb, []byte(revTag))
	if at < 0 {
		return nil, fmt.Errorf("revision tag missing from the .tfb bytes")
	}

	wide := 0
	for n := range back.NumNets() {
		if sz := back.NetSize(tanglefind.NetID(n)); sz >= 16 {
			wide += sz
		}
	}
	return &input{
		tfb:     tfb,
		revAt:   at + len("rev-"),
		nl:      back,
		blocks:  rg.Blocks,
		planted: plantedCells(back.NumCells(), rg.Blocks),
		info: inputInfo{
			Cells:        back.NumCells(),
			Nets:         back.NumNets(),
			Pins:         back.NumPins(),
			Blocks:       len(rg.Blocks),
			WidePinShare: float64(wide) / float64(back.NumPins()),
		},
	}, nil
}

func plantedCells(n int, blocks [][]tanglefind.CellID) []bool {
	planted := make([]bool, n)
	for _, blk := range blocks {
		for _, c := range blk {
			planted[c] = true
		}
	}
	return planted
}

// hierarchicalIDs maps the generator's cell ids to new ones: the
// background split into len(blocks)+1 runs, one block between every
// two runs.
func hierarchicalIDs(n int, blocks [][]tanglefind.CellID) []tanglefind.CellID {
	planted := plantedCells(n, blocks)
	var background []tanglefind.CellID
	for c := range n {
		if !planted[c] {
			background = append(background, tanglefind.CellID(c))
		}
	}
	id := make([]tanglefind.CellID, n)
	next := tanglefind.CellID(0)
	place := func(cells []tanglefind.CellID) {
		for _, c := range cells {
			id[c] = next
			next++
		}
	}
	run := len(background) / (len(blocks) + 1)
	for i, blk := range blocks {
		place(background[i*run : (i+1)*run])
		place(blk)
	}
	place(background[len(blocks)*run:])
	return id
}

func relabel(id []tanglefind.CellID, cells []tanglefind.CellID) []tanglefind.CellID {
	out := make([]tanglefind.CellID, len(cells))
	for i, c := range cells {
		out[i] = id[c]
	}
	return out
}

// revision returns the .tfb bytes of revision k (k < 10^6).
func (in *input) revision(k int) []byte {
	data := bytes.Clone(in.tfb)
	copy(data[in.revAt:], fmt.Sprintf("%06d", k))
	return data
}

// addWideNets adds the wide nets of find_widenet: buses of 16-48 pins
// inside each block and in the background (about 0.27 pins per cell in
// total, shared by cell count), and eight global nets of Cells/64 pins
// modelling clock, reset and scan distribution. Together they put about
// 8% of all pins on nets of at least 16 pins.
func addWideNets(b *tanglefind.Builder, rng *rand.Rand, blocks [][]tanglefind.CellID, n int) {
	planted := plantedCells(n, blocks)
	var background, all []tanglefind.CellID
	for c := range n {
		id := tanglefind.CellID(c)
		all = append(all, id)
		if !planted[c] {
			background = append(background, id)
		}
	}
	pick := func(pool []tanglefind.CellID, k int) []tanglefind.CellID {
		out := make([]tanglefind.CellID, k)
		for i := range out {
			out[i] = pool[rng.IntN(len(pool))]
		}
		return out
	}
	busPins := n * 27 / 100
	buses := func(pool []tanglefind.CellID) {
		for left := busPins * len(pool) / n; left > 0; {
			k := 16 + rng.IntN(33)
			b.AddNet("", pick(pool, k)...)
			left -= k
		}
	}
	for _, blk := range blocks {
		buses(blk)
	}
	buses(background)
	for range 8 {
		b.AddNet("", pick(all, n/64)...)
	}
}
