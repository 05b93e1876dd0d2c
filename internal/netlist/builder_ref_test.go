package netlist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refBuilder is the slice-of-slices Builder that the flat one
// replaced, kept as the reference Builder must match. It is
// deliberately plain: one freshly allocated pin slice, name and driver
// list per net, a name and a unit area appended per cell, and a
// reflection-based sort per net at Build time. Like the original, its
// netlists share the builder's name and area slices.
type refBuilder struct {
	netCells   [][]CellID
	netNames   []string
	cellNames  []string
	cellArea   []float64
	numCells   int
	netDrivers [][]CellID
	directed   bool

	DropDegenerateNets bool
}

func (b *refBuilder) AddCell(name string) CellID {
	id := CellID(b.numCells)
	b.numCells++
	b.cellNames = append(b.cellNames, name)
	b.cellArea = append(b.cellArea, 1)
	return id
}

func (b *refBuilder) AddCells(n int) CellID {
	first := CellID(b.numCells)
	b.numCells += n
	for i := 0; i < n; i++ {
		b.cellNames = append(b.cellNames, "")
		b.cellArea = append(b.cellArea, 1)
	}
	return first
}

func (b *refBuilder) SetCellArea(c CellID, area float64) { b.cellArea[c] = area }

func (b *refBuilder) AddNet(name string, cells ...CellID) NetID {
	id := NetID(len(b.netCells))
	cp := make([]CellID, len(cells))
	copy(cp, cells)
	b.netCells = append(b.netCells, cp)
	b.netNames = append(b.netNames, name)
	b.netDrivers = append(b.netDrivers, nil)
	return id
}

func (b *refBuilder) AddDrivenNet(name string, drivers []CellID, sinks ...CellID) NetID {
	pins := make([]CellID, 0, len(drivers)+len(sinks))
	pins = append(pins, drivers...)
	pins = append(pins, sinks...)
	id := b.AddNet(name, pins...)
	b.MarkDrivers(id, drivers...)
	return id
}

func (b *refBuilder) MarkDrivers(n NetID, drivers ...CellID) {
	b.directed = true
	b.netDrivers[n] = append(b.netDrivers[n], drivers...)
}

func (b *refBuilder) Build() (*Netlist, error) {
	keep := make([][]CellID, 0, len(b.netCells))
	names := make([]string, 0, len(b.netCells))
	var drivers [][]CellID
	if b.directed {
		drivers = make([][]CellID, 0, len(b.netCells))
	}
	totalPins, totalDrv := 0, 0
	for i, cells := range b.netCells {
		uniq := refDedupe(cells)
		for _, c := range uniq {
			if c < 0 || int(c) >= b.numCells {
				return nil, fmt.Errorf("netlist: net %q pins unknown cell %d", b.netNames[i], c)
			}
		}
		if b.DropDegenerateNets && len(uniq) < 2 {
			continue
		}
		if b.directed {
			drv := refDedupe(b.netDrivers[i])
			if err := checkSubset(drv, uniq); err != nil {
				return nil, fmt.Errorf("netlist: net %q: %w", b.netNames[i], err)
			}
			drivers = append(drivers, drv)
			totalDrv += len(drv)
		}
		keep = append(keep, uniq)
		names = append(names, b.netNames[i])
		totalPins += len(uniq)
	}
	if totalPins > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: %d pins overflow the int32 CSR offset space", totalPins)
	}
	nl := &Netlist{
		cellPinOff: make([]int32, b.numCells+1),
		cellPinNet: make([]NetID, totalPins),
		netPinOff:  make([]int32, len(keep)+1),
		netPinCell: make([]CellID, totalPins),
		cellNames:  b.cellNames,
		netNames:   names,
		cellArea:   b.cellArea,
	}
	at := int32(0)
	for n, cells := range keep {
		nl.netPinOff[n] = at
		copy(nl.netPinCell[at:], cells)
		at += int32(len(cells))
		for _, c := range cells {
			nl.cellPinOff[c+1]++
		}
	}
	nl.netPinOff[len(keep)] = at
	for c := 0; c < b.numCells; c++ {
		nl.cellPinOff[c+1] += nl.cellPinOff[c]
	}
	cursor := make([]int32, b.numCells)
	for n, cells := range keep {
		for _, c := range cells {
			nl.cellPinNet[nl.cellPinOff[c]+cursor[c]] = NetID(n)
			cursor[c]++
		}
	}
	if b.directed {
		drvOff := make([]int32, len(keep)+1)
		drvCell := make([]CellID, totalDrv)
		dat := int32(0)
		for n, drv := range drivers {
			drvOff[n] = dat
			dat += int32(copy(drvCell[dat:], drv))
		}
		drvOff[len(keep)] = dat
		nl.attachDrivers(drvOff, drvCell)
	}
	return nl, nil
}

func refDedupe(cells []CellID) []CellID {
	if len(cells) <= 1 {
		return cells
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i] < cells[j] })
	out := cells[:1]
	for _, c := range cells[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// builderOps drives a Builder and a refBuilder through the same
// operation sequence, decoded from bytes, and after every Build
// requires the same error or success, the same CSR, names and areas,
// and byte-identical .tfb output. A pin byte of 253–255 stands for an
// out-of-range or negative cell id; every other byte maps onto the
// cells added so far, so small cell counts give duplicate pins.
type builderOps struct {
	t    testing.TB
	data []byte
	got  Builder
	want refBuilder
	nets [][]CellID // every net's pins as added, for MarkDrivers
}

func (o *builderOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

var opNames = []string{"", "", "", "a", "clk", "q_reg"}

func (o *builderOps) name() string { return opNames[int(o.byte())%len(opNames)] }

func (o *builderOps) pin() CellID {
	switch b := o.byte(); b {
	case 255:
		return -1
	case 254:
		return CellID(o.want.numCells)
	case 253:
		return CellID(o.want.numCells + 7)
	default:
		return CellID(int(b) % max(o.want.numCells, 1))
	}
}

func (o *builderOps) pins(max int) []CellID {
	k := int(o.byte()) % (max + 1)
	out := make([]CellID, k)
	for i := range out {
		out[i] = o.pin()
	}
	return out
}

func (o *builderOps) run() {
	for steps := 0; len(o.data) > 0; steps++ {
		switch o.byte() % 10 {
		case 0:
			name := o.name()
			if g, w := o.got.AddCell(name), o.want.AddCell(name); g != w {
				o.t.Fatalf("AddCell id %d, reference %d", g, w)
			}
		case 1:
			n := int(o.byte()) % 4
			if g, w := o.got.AddCells(n), o.want.AddCells(n); g != w {
				o.t.Fatalf("AddCells first id %d, reference %d", g, w)
			}
		case 2, 3:
			name, pins := o.name(), o.pins(6)
			o.addNet(o.got.AddNet(name, pins...), o.want.AddNet(name, pins...), pins)
		case 4:
			name, drivers, sinks := o.name(), o.pins(2), o.pins(4)
			o.addNet(o.got.AddDrivenNet(name, drivers, sinks...), o.want.AddDrivenNet(name, drivers, sinks...), append(append([]CellID{}, drivers...), sinks...))
		case 5:
			if len(o.nets) == 0 {
				continue
			}
			n := NetID(int(o.byte()) % len(o.nets))
			var drivers []CellID
			for k := int(o.byte()) % 3; k > 0; k-- {
				// Mostly pins of the net; sometimes any id, which Build
				// must reject unless it happens to be a pin.
				if b := o.byte(); b%4 != 0 && len(o.nets[n]) > 0 {
					drivers = append(drivers, o.nets[n][int(b)%len(o.nets[n])])
				} else {
					drivers = append(drivers, o.pin())
				}
			}
			o.got.MarkDrivers(n, drivers...)
			o.want.MarkDrivers(n, drivers...)
		case 6:
			if o.want.numCells == 0 {
				continue
			}
			c := CellID(int(o.byte()) % o.want.numCells)
			area := []float64{1, 2.5, 0, 0.6, 3, 1}[int(o.byte())%6]
			o.got.SetCellArea(c, area)
			o.want.SetCellArea(c, area)
		case 7:
			o.got.DropDegenerateNets = !o.got.DropDegenerateNets
			o.want.DropDegenerateNets = o.got.DropDegenerateNets
		case 8:
			o.compare()
		case 9:
			// A well-formed net of 2–4 distinct in-range pins, so most
			// sequences build successfully.
			if o.want.numCells < 2 {
				continue
			}
			first := int(o.byte()) % o.want.numCells
			k := 2 + int(o.byte())%3
			var pins []CellID
			for i := 0; i < k && i < o.want.numCells; i++ {
				pins = append(pins, CellID((first+i*7)%o.want.numCells))
			}
			o.addNet(o.got.AddNet("", pins...), o.want.AddNet("", pins...), pins)
		}
	}
	o.compare()
	o.compare() // Build twice with nothing added in between
}

func (o *builderOps) addNet(got, want NetID, pins []CellID) {
	if got != want {
		o.t.Fatalf("net id %d, reference %d", got, want)
	}
	o.nets = append(o.nets, pins)
}

// compare builds both sides and requires identical outcomes.
func (o *builderOps) compare() {
	t := o.t
	t.Helper()
	got, gerr := o.got.Build()
	want, werr := o.want.Build()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("Build error %v, reference %v", gerr, werr)
	}
	if gerr != nil {
		return
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("built netlist fails Validate: %v", err)
	}
	if got.NumCells() != want.NumCells() || got.NumNets() != want.NumNets() || got.NumPins() != want.NumPins() || got.Directed() != want.Directed() {
		t.Fatalf("counts %d/%d/%d directed=%v, reference %d/%d/%d directed=%v",
			got.NumCells(), got.NumNets(), got.NumPins(), got.Directed(),
			want.NumCells(), want.NumNets(), want.NumPins(), want.Directed())
	}
	for n := NetID(0); int(n) < want.NumNets(); n++ {
		if !equalIDs(got.NetPins(n), want.NetPins(n)) || !equalIDs(got.NetDrivers(n), want.NetDrivers(n)) {
			t.Fatalf("net %d pins %v drivers %v, reference %v %v", n, got.NetPins(n), got.NetDrivers(n), want.NetPins(n), want.NetDrivers(n))
		}
		if got.NetName(n) != want.NetName(n) {
			t.Fatalf("net %d name %q, reference %q", n, got.NetName(n), want.NetName(n))
		}
	}
	for c := CellID(0); int(c) < want.NumCells(); c++ {
		if !equalIDs(got.CellPins(c), want.CellPins(c)) {
			t.Fatalf("cell %d pins %v, reference %v", c, got.CellPins(c), want.CellPins(c))
		}
		if got.CellName(c) != want.CellName(c) || got.CellArea(c) != want.CellArea(c) {
			t.Fatalf("cell %d name %q area %v, reference %q %v", c, got.CellName(c), got.CellArea(c), want.CellName(c), want.CellArea(c))
		}
	}
	if got.TotalArea() != want.TotalArea() {
		t.Fatalf("total area %v, reference %v", got.TotalArea(), want.TotalArea())
	}
	var gb, wb bytes.Buffer
	if err := got.WriteBinary(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteBinary(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf(".tfb bytes differ from the reference's (%d vs %d bytes)", gb.Len(), wb.Len())
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuilderMatchesReference runs seeded random operation sequences
// through the Builder and the reference. Half the sequences avoid the
// out-of-range pin bytes, so most of their builds succeed; the others
// use every byte and exercise the error paths.
func TestBuilderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for seq := 0; seq < 400; seq++ {
		data := make([]byte, 50+r.Intn(400))
		for i := range data {
			if seq%2 == 0 {
				data[i] = byte(r.Intn(253))
			} else {
				data[i] = byte(r.Intn(256))
			}
		}
		o := &builderOps{t: t, data: data}
		o.run()
	}
}

// FuzzBuild is the native fuzz target for the Builder against the
// reference; `go test` runs the seed corpus, `go test -fuzz=FuzzBuild`
// explores.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 2, 3, 0, 1, 2, 8, 2, 4, 0, 0, 2, 1})
	f.Add([]byte{1, 3, 4, 0, 1, 1, 2, 0, 2, 8, 5, 0, 2, 1, 7, 6, 1, 1, 8, 2, 0, 2, 255, 1})
	f.Add([]byte{0, 3, 0, 4, 9, 0, 1, 6, 1, 1, 7, 3, 0, 3, 0, 0, 8, 9, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &builderOps{t: t, data: data}
		o.run()
	})
}
