package netlist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// The .tfb binary format stores the net→cell direction of the CSR
// incidence structure verbatim, so loading is O(pins): read two flat
// arrays, derive the cell side with one counting pass, done — no
// tokenizing, no Builder dedupe. Layout (all integers little-endian):
//
//	magic     [4]byte  "TFBN"
//	version   uint32   (1 or 2)
//	flags     uint32   bit0 net names, bit1 cell names, bit2 areas,
//	                   bit3 drivers (version 2 only)
//	numCells  uint32
//	numNets   uint32
//	numPins   uint64
//	netPinOff uint32 × (numNets+1)   CSR offsets into netPinCell
//	netPinCell uint32 × numPins      per-net runs strictly ascending
//	[drivers]    uint64 numDrvPins, then uint32 × (numNets+1) offsets
//	             and uint32 × numDrvPins driver cells (flag bit3):
//	             the per-net driver runs, each a sorted subset of the
//	             net's pin run
//	[net names]  per net: uvarint length + bytes   (flag bit0)
//	[cell names] per cell: uvarint length + bytes  (flag bit1)
//	[areas]      float64 bits uint64 × numCells    (flag bit2)
//
// Format versions:
//
//	.tfnet 1 — text, header "tfnet 1" (io.go; `*`-prefixed pins mark drivers)
//	.tfb   1 — binary CSR, magic "TFBN" version 1 (this file)
//	.tfb   2 — version 1 plus the optional driver section (flag bit3)
//
// Undirected netlists always serialize as version 1, byte-identical
// to what older writers produced, so existing content digests are
// stable; only a directed netlist emits version 2, which old readers
// reject loudly instead of silently dropping the annotation.
//
// The reader rejects any other version, validates ids and sortedness
// while decoding (so a loaded netlist always passes Validate), and
// never allocates much more than the bytes actually present in the
// stream — a truncated header claiming 2^31 pins fails on the first
// short read, not with a 16 GiB allocation. When the stream reports
// its length (bytes.Reader, bytes.Buffer), each array is allocated
// once at its claimed size, capped by what the stream could hold.
//
// Both directions move data in 4 KB chunks: the writer encodes values
// into one chunk before each Write, and the reader decodes each
// buffered chunk straight into the array it fills.

var tfbMagic = [4]byte{'T', 'F', 'B', 'N'}

// tfbVersion is the baseline binary format version; tfbVersionDrivers
// adds the optional driver section.
const (
	tfbVersion        = 1
	tfbVersionDrivers = 2
)

const (
	tfbFlagNetNames  = 1 << 0
	tfbFlagCellNames = 1 << 1
	tfbFlagAreas     = 1 << 2
	tfbFlagDrivers   = 1 << 3
)

// maxStringLen bounds a single serialized name; anything longer is a
// corrupt or adversarial stream.
const maxStringLen = 1 << 20

// allocChunk caps the up-front allocation of an array read from a
// stream of unknown length: the array grows as bytes actually arrive,
// so a lying header cannot force a huge allocation.
const allocChunk = 1 << 16

// chunkBytes is the size of the chunk the writer encodes into before
// each Write. The reader's unit is its bufio buffer, 4 KB by default.
const chunkBytes = 4 << 10

// WriteBinary serializes the netlist in .tfb form.
func (nl *Netlist) WriteBinary(w io.Writer) error {
	var flags uint32
	if hasAnyName(nl.netNames) {
		flags |= tfbFlagNetNames
	}
	if hasAnyName(nl.cellNames) {
		flags |= tfbFlagCellNames
	}
	if nl.cellArea != nil && !allUnitArea(nl.cellArea) {
		flags |= tfbFlagAreas
	}
	version := uint32(tfbVersion)
	if nl.Directed() {
		flags |= tfbFlagDrivers
		version = tfbVersionDrivers
	}
	e := tfbEncoder{w: w, buf: make([]byte, 0, chunkBytes)}
	e.buf = append(e.buf, tfbMagic[:]...)
	e.u32(version)
	e.u32(flags)
	e.u32(uint32(nl.NumCells()))
	e.u32(uint32(nl.NumNets()))
	e.u64(uint64(nl.NumPins()))
	// The zero-value netlist has no offset arrays; emit the implicit
	// single 0 so the reader sees a well-formed CSR.
	e.offsets(nl.netPinOff)
	e.u32s(nl.netPinCell)
	if flags&tfbFlagDrivers != 0 {
		e.u64(uint64(len(nl.netDrvCell)))
		e.offsets(nl.netDrvOff)
		e.u32s(nl.netDrvCell)
	}
	if flags&tfbFlagNetNames != 0 {
		e.names(nl.netNames, nl.NumNets())
	}
	if flags&tfbFlagCellNames != 0 {
		e.names(nl.cellNames, nl.NumCells())
	}
	if flags&tfbFlagAreas != 0 {
		for _, a := range nl.cellArea {
			e.u64(math.Float64bits(a))
		}
	}
	return e.flush()
}

// tfbEncoder encodes a .tfb stream into one chunk and hands the writer
// a full chunk at a time. The first write error sticks: later chunks
// are dropped and flush returns it.
type tfbEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

// room makes sure the chunk has n free bytes (n <= chunkBytes).
func (e *tfbEncoder) room(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.flush()
	}
}

func (e *tfbEncoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

func (e *tfbEncoder) u32(v uint32) {
	e.room(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *tfbEncoder) u64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *tfbEncoder) u32s(vals []int32) {
	for _, v := range vals {
		e.u32(uint32(v))
	}
}

// offsets writes a CSR offset array, or the single 0 a nil one stands
// for.
func (e *tfbEncoder) offsets(off []int32) {
	if len(off) == 0 {
		e.u32(0)
		return
	}
	e.u32s(off)
}

// names writes n length-prefixed names; ids past the end of names are
// unnamed.
func (e *tfbEncoder) names(names []string, n int) {
	for i := 0; i < n; i++ {
		s := ""
		if i < len(names) {
			s = names[i]
		}
		e.room(binary.MaxVarintLen64)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
		for len(s) > 0 {
			e.room(1)
			k := min(len(s), cap(e.buf)-len(e.buf))
			e.buf = append(e.buf, s[:k]...)
			s = s[k:]
		}
	}
}

// ReadBinary parses a .tfb stream produced by WriteBinary.
func ReadBinary(r io.Reader) (*Netlist, error) {
	return readBinary(bufio.NewReader(r), streamLen(r))
}

// streamLen returns the number of unread bytes r holds when it can
// tell (bytes.Reader, bytes.Buffer, strings.Reader), else -1.
func streamLen(r io.Reader) int {
	if l, ok := r.(interface{ Len() int }); ok {
		return l.Len()
	}
	return -1
}

// readBinary decodes a .tfb stream of size bytes (-1 when unknown).
func readBinary(br *bufio.Reader, size int) (*Netlist, error) {
	d := tfbDecoder{r: br, size: size}
	hdr, err := d.next(28, 1)
	if err != nil {
		return nil, fmt.Errorf("netlist: tfb: short header: %w", err)
	}
	if [4]byte(hdr[0:4]) != tfbMagic {
		return nil, fmt.Errorf("netlist: tfb: bad magic %q", hdr[0:4])
	}
	le := binary.LittleEndian
	version := le.Uint32(hdr[4:8])
	if version != tfbVersion && version != tfbVersionDrivers {
		return nil, fmt.Errorf("netlist: tfb: unsupported version %d (want %d or %d)", version, tfbVersion, tfbVersionDrivers)
	}
	flags := le.Uint32(hdr[8:12])
	if version == tfbVersion && flags&tfbFlagDrivers != 0 {
		return nil, fmt.Errorf("netlist: tfb: driver flag requires version %d", tfbVersionDrivers)
	}
	numCells := int(le.Uint32(hdr[12:16]))
	numNets := int(le.Uint32(hdr[16:20]))
	numPins64 := le.Uint64(hdr[20:28])
	br.Discard(28)
	if numCells > math.MaxInt32 || numNets > math.MaxInt32 || numPins64 > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: tfb: sizes out of range (%d cells, %d nets, %d pins)", numCells, numNets, numPins64)
	}
	numPins := int(numPins64)
	// Every other size is backed by stream bytes (offsets: 4 per net,
	// pins: 4 each), but numCells is a bare header claim that drives
	// O(numCells) allocations in fromNetCSR. Beyond a 1M-cell
	// allowance, demand pin evidence — real netlists average ~4 pins
	// per cell; a stream claiming over 1M cells with fewer than half a
	// pin per cell is a crafted allocation bomb, not a netlist.
	if implausibleCells(numCells, numPins) {
		return nil, fmt.Errorf("netlist: tfb: implausible header: %d cells backed by only %d pins", numCells, numPins)
	}

	off, err := d.u32s(numNets + 1)
	if err != nil {
		return nil, fmt.Errorf("netlist: tfb: offsets: %w", err)
	}
	if off[0] != 0 || int(off[numNets]) != numPins {
		return nil, fmt.Errorf("netlist: tfb: offsets span [%d,%d], want [0,%d]", off[0], off[numNets], numPins)
	}
	for i := 1; i <= numNets; i++ {
		if off[i] < off[i-1] {
			return nil, fmt.Errorf("netlist: tfb: offsets decrease at net %d", i-1)
		}
	}
	pins, err := d.u32s(numPins)
	if err != nil {
		return nil, fmt.Errorf("netlist: tfb: pins: %w", err)
	}
	for n := 0; n < numNets; n++ {
		run := pins[off[n]:off[n+1]]
		for i, c := range run {
			if c < 0 || int(c) >= numCells {
				return nil, fmt.Errorf("netlist: tfb: net %d pins out-of-range cell %d", n, c)
			}
			if i > 0 && run[i-1] >= c {
				return nil, fmt.Errorf("netlist: tfb: net %d pin run not strictly ascending", n)
			}
		}
	}
	var drvOff []int32
	var drvCell []CellID
	if flags&tfbFlagDrivers != 0 {
		cnt, err := d.next(8, 8)
		if err != nil {
			return nil, fmt.Errorf("netlist: tfb: driver count: %w", err)
		}
		numDrv64 := le.Uint64(cnt)
		br.Discard(8)
		if numDrv64 > uint64(numPins) {
			return nil, fmt.Errorf("netlist: tfb: %d driver pins exceed %d pins", numDrv64, numPins)
		}
		numDrv := int(numDrv64)
		if drvOff, err = d.u32s(numNets + 1); err != nil {
			return nil, fmt.Errorf("netlist: tfb: driver offsets: %w", err)
		}
		if drvOff[0] != 0 || int(drvOff[numNets]) != numDrv {
			return nil, fmt.Errorf("netlist: tfb: driver offsets span [%d,%d], want [0,%d]", drvOff[0], drvOff[numNets], numDrv)
		}
		for i := 1; i <= numNets; i++ {
			if drvOff[i] < drvOff[i-1] {
				return nil, fmt.Errorf("netlist: tfb: driver offsets decrease at net %d", i-1)
			}
			if drvOff[i]-drvOff[i-1] > off[i]-off[i-1] {
				return nil, fmt.Errorf("netlist: tfb: net %d has more drivers than pins", i-1)
			}
		}
		drvCell, err = d.u32s(numDrv)
		if err != nil {
			return nil, fmt.Errorf("netlist: tfb: driver pins: %w", err)
		}
		for n := 0; n < numNets; n++ {
			drv := drvCell[drvOff[n]:drvOff[n+1]]
			run := pins[off[n]:off[n+1]]
			at := 0
			for i, c := range drv {
				if i > 0 && drv[i-1] >= c {
					return nil, fmt.Errorf("netlist: tfb: net %d driver run not strictly ascending", n)
				}
				for at < len(run) && run[at] < c {
					at++
				}
				if at >= len(run) || run[at] != c {
					return nil, fmt.Errorf("netlist: tfb: net %d driver %d is not one of its pins", n, c)
				}
			}
		}
	}
	var netNames, cellNames []string
	if flags&tfbFlagNetNames != 0 {
		if netNames, err = d.names(numNets); err != nil {
			return nil, fmt.Errorf("netlist: tfb: net names: %w", err)
		}
	}
	if flags&tfbFlagCellNames != 0 {
		if cellNames, err = d.names(numCells); err != nil {
			return nil, fmt.Errorf("netlist: tfb: cell names: %w", err)
		}
	}
	var areas []float64
	if flags&tfbFlagAreas != 0 {
		if areas, err = d.areas(numCells); err != nil {
			return nil, fmt.Errorf("netlist: tfb: %w", err)
		}
	}
	nl := fromNetCSR(numCells, off, pins, netNames, cellNames, areas)
	if flags&tfbFlagDrivers != 0 {
		nl.attachDrivers(drvOff, drvCell)
	}
	return nl, nil
}

// implausibleCells is the rule both readers apply to a cell count:
// beyond 1<<20 cells it must be backed by at least one pin per two
// cells.
func implausibleCells(numCells, numPins int) bool {
	return numCells > 1<<20 && numCells > 2*numPins
}

// tfbDecoder reads the arrays of a .tfb stream straight out of the
// reader's buffer, one chunk at a time. size is the stream's length
// (-1 when unknown): an array is allocated whole when that many
// elements could fit in the stream, and otherwise starts at allocChunk
// elements and grows as bytes arrive, so a lying header never costs
// an allocation much larger than the stream.
type tfbDecoder struct {
	r    *bufio.Reader
	size int
}

// capFor returns the capacity to allocate up front for an array of n
// elements of elemBytes each.
func (d *tfbDecoder) capFor(n, elemBytes int) int {
	if d.size >= 0 {
		return min(n, d.size/elemBytes)
	}
	return min(n, allocChunk)
}

// next returns, without consuming them, the next min(want, chunk)
// bytes of the stream, a whole number of elemBytes-sized elements.
// Running out of stream mid-chunk is io.ErrUnexpectedEOF.
func (d *tfbDecoder) next(want, elemBytes int) ([]byte, error) {
	k := min(want, d.r.Size()/elemBytes*elemBytes)
	b, err := d.r.Peek(k)
	if len(b) < k {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// u32s decodes n little-endian uint32 values that must fit in int32.
func (d *tfbDecoder) u32s(n int) ([]int32, error) {
	out := make([]int32, 0, d.capFor(n, 4))
	for len(out) < n {
		b, err := d.next(4*(n-len(out)), 4)
		if err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			v := binary.LittleEndian.Uint32(b[i:])
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("value %d overflows int32", v)
			}
			out = append(out, int32(v))
		}
		d.r.Discard(len(b))
	}
	return out, nil
}

// areas decodes n cell areas, each finite and non-negative.
func (d *tfbDecoder) areas(n int) ([]float64, error) {
	out := make([]float64, 0, d.capFor(n, 8))
	for len(out) < n {
		b, err := d.next(8*(n-len(out)), 8)
		if err != nil {
			return nil, fmt.Errorf("areas: %w", err)
		}
		for i := 0; i < len(b); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
			if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
				return nil, fmt.Errorf("cell %d has invalid area %v", len(out), a)
			}
			out = append(out, a)
		}
		d.r.Discard(len(b))
	}
	return out, nil
}

// names decodes n length-prefixed names and keeps them only up to the
// last non-empty one (nil when every name is empty).
func (d *tfbDecoder) names(n int) ([]string, error) {
	var out []string
	for i := 0; i < n; i++ {
		l, err := binary.ReadUvarint(d.r)
		if err != nil {
			return nil, err
		}
		if l > maxStringLen {
			return nil, fmt.Errorf("name %d length %d exceeds limit", i, l)
		}
		if l == 0 {
			continue
		}
		var sb strings.Builder
		sb.Grow(int(l))
		for sb.Len() < int(l) {
			b, err := d.next(int(l)-sb.Len(), 1)
			if err != nil {
				return nil, err
			}
			sb.Write(b)
			d.r.Discard(len(b))
		}
		out = setAt(out, i, sb.String(), "")
	}
	return out, nil
}

// ReadAuto parses a netlist from r, autodetecting the format by
// content: a "TFBN" magic selects the .tfb binary reader, anything
// else falls through to the .tfnet text parser.
func ReadAuto(r io.Reader) (*Netlist, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(len(tfbMagic))
	if len(head) == len(tfbMagic) && [4]byte(head) == tfbMagic {
		return readBinary(br, streamLen(r))
	}
	// Hand a seekable stream to Read rewound, so it can size its arrays
	// in a counting pass.
	if s, ok := r.(io.Seeker); ok {
		if _, err := s.Seek(-int64(br.Buffered()), io.SeekCurrent); err == nil {
			return Read(r)
		}
	}
	return Read(br)
}

// ReadFile loads a netlist from path, autodetecting the format by
// content (see ReadAuto).
func ReadFile(path string) (*Netlist, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAuto(f)
}

// WriteFile saves the netlist to path, picking the format from the
// extension: ".tfb" writes the binary form, everything else the
// .tfnet text form.
func (nl *Netlist) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.EqualFold(filepath.Ext(path), ".tfb") {
		werr = nl.WriteBinary(f)
	} else {
		werr = nl.Write(f)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func hasAnyName(names []string) bool {
	for _, s := range names {
		if s != "" {
			return true
		}
	}
	return false
}

func allUnitArea(area []float64) bool {
	for _, a := range area {
		if a != 1 {
			return false
		}
	}
	return true
}
