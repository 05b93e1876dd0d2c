package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The .tfnet text format is a minimal portable netlist exchange format:
//
//	tfnet 1
//	cells <numCells>
//	net <name> <cellID> <cellID> ...
//	...
//
// Lines starting with '#' are comments. A cell id prefixed with '*'
// marks a driver pin (the cell drives that net); any '*' marker makes
// the parsed netlist directed (see the package comment). Cell names
// and areas are not serialized — the format exists so generated
// benchmarks can be saved and re-loaded by the CLI tools;
// full-fidelity exchange uses the Bookshelf reader/writer in
// internal/bookshelf or the .tfb binary format in iobin.go (which
// also loads ~an order of magnitude faster).

// Write serializes the netlist in .tfnet form. Driver pins of a
// directed netlist carry the '*' marker.
func (nl *Netlist) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "tfnet 1")
	fmt.Fprintf(bw, "cells %d\n", nl.NumCells())
	for n := 0; n < nl.NumNets(); n++ {
		fmt.Fprintf(bw, "net %s", nl.NetName(NetID(n)))
		drv := nl.NetDrivers(NetID(n))
		at := 0
		for _, c := range nl.NetPins(NetID(n)) {
			for at < len(drv) && drv[at] < c {
				at++
			}
			if at < len(drv) && drv[at] == c {
				fmt.Fprintf(bw, " *%d", c)
			} else {
				fmt.Fprintf(bw, " %d", c)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// maxTFNetLine caps the length of one .tfnet line; a longer line is a
// read error.
const maxTFNetLine = 1 << 24

// Read parses a .tfnet stream produced by Write. A stream that can
// seek (a file, bytes.Reader, strings.Reader) is read twice: a first
// pass counts its nets, pins, driver pins and name bytes, so the parse
// fills exactly sized arrays and one string that holds every net name.
// Any other stream is parsed once, its arrays growing as it goes.
// Either way a net line allocates nothing of its own.
func Read(r io.Reader) (*Netlist, error) {
	buf := make([]byte, 4<<10) // grows only for lines longer than this
	var want tfnetCounts
	if s, ok := r.(io.Seeker); ok {
		if at, err := s.Seek(0, io.SeekCurrent); err == nil {
			want = countNets(newTFNetLines(r, buf))
			if _, err := s.Seek(at, io.SeekStart); err != nil {
				return nil, fmt.Errorf("netlist: read: %w", err)
			}
		}
	}
	lines := newTFNetLines(r, buf)
	hdr, ok := lines.next()
	if !ok || !bytes.HasPrefix(hdr, []byte("tfnet ")) {
		return nil, fmt.Errorf("netlist: line %d: missing tfnet header", lines.n)
	}
	cellsLine, ok := lines.next()
	if !ok {
		return nil, fmt.Errorf("netlist: line %d: missing cells line", lines.n)
	}
	kw, rest := cutField(cellsLine)
	num, rest := cutField(rest)
	numCells, err := strconv.Atoi(string(num))
	if extra, _ := cutField(rest); string(kw) != "cells" || err != nil || len(extra) > 0 {
		return nil, fmt.Errorf("netlist: line %d: bad cells line %q", lines.n, cellsLine)
	}
	if numCells < 0 || numCells > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: line %d: cell count %d out of range", lines.n, numCells)
	}
	var b Builder
	b.AddCells(numCells)
	b.grow(want.pins, want.nets)
	b.netNames = slices.Grow(b.netNames, want.nets)
	b.drvNet = slices.Grow(b.drvNet, want.drivers)
	b.drvCell = slices.Grow(b.drvCell, want.drivers)
	// Names are written back to back into one string; each net's name
	// is a substring of it. The bytes a strings.Builder holds never
	// change, so earlier substrings stay exact even if it regrows.
	var names strings.Builder
	names.Grow(want.nameBytes)
	for {
		t, ok := lines.next()
		if !ok {
			break
		}
		name, pins, ok := netLine(t)
		if !ok {
			return nil, fmt.Errorf("netlist: line %d: expected net line, got %q", lines.n, t)
		}
		id := NetID(len(b.netEnd))
		for f, rest := cutField(pins); len(f) > 0; f, rest = cutField(rest) {
			raw, isDrv := bytes.CutPrefix(f, []byte("*"))
			c, err := strconv.Atoi(string(raw))
			if err != nil || c < math.MinInt32 || c > math.MaxInt32 {
				return nil, fmt.Errorf("netlist: line %d: bad cell id %q", lines.n, f)
			}
			b.pins = append(b.pins, CellID(c))
			if isDrv {
				b.drvNet = append(b.drvNet, id)
				b.drvCell = append(b.drvCell, CellID(c))
				b.directed = true
			}
		}
		b.netEnd = append(b.netEnd, len(b.pins))
		names.Write(name)
		all := names.String()
		b.netNames = append(b.netNames, all[len(all)-len(name):])
	}
	if err := lines.sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	// The cell count is a bare header claim, and Build allocates
	// O(cells): hold it to the .tfb reader's rule before building.
	if implausibleCells(numCells, len(b.pins)) {
		return nil, fmt.Errorf("netlist: implausible header: %d cells backed by only %d pins", numCells, len(b.pins))
	}
	return b.Build()
}

// tfnetLines yields the content lines of a .tfnet stream: trimmed,
// neither blank nor a comment, each valid until the next call.
type tfnetLines struct {
	sc *bufio.Scanner
	n  int // physical number of the last line read
}

// newTFNetLines scans r starting in buf, which grows for a long line
// up to maxTFNetLine.
func newTFNetLines(r io.Reader, buf []byte) *tfnetLines {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, maxTFNetLine)
	return &tfnetLines{sc: sc}
}

func (l *tfnetLines) next() ([]byte, bool) {
	for l.sc.Scan() {
		l.n++
		t := bytes.TrimSpace(l.sc.Bytes())
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		return t, true
	}
	return nil, false
}

// tfnetCounts sizes the net section of a .tfnet stream.
type tfnetCounts struct {
	nets, pins, drivers, nameBytes int
}

// countNets is Read's counting pass: it skips the header and cells
// lines and counts the net lines that follow, stopping where the parse
// would fail.
func countNets(lines *tfnetLines) (c tfnetCounts) {
	if hdr, ok := lines.next(); !ok || !bytes.HasPrefix(hdr, []byte("tfnet ")) {
		return c
	}
	lines.next()
	for {
		t, ok := lines.next()
		if !ok {
			return c
		}
		name, pins, ok := netLine(t)
		if !ok {
			return c
		}
		c.nets++
		c.nameBytes += len(name)
		for f, rest := cutField(pins); len(f) > 0; f, rest = cutField(rest) {
			c.pins++
			if f[0] == '*' {
				c.drivers++
			}
		}
	}
}

// netLine splits a "net <name> <pins...>" line into its name and the
// rest of the line; ok is false for any other line.
func netLine(t []byte) (name, pins []byte, ok bool) {
	kw, rest := cutField(t)
	name, pins = cutField(rest)
	return name, pins, string(kw) == "net" && len(name) > 0
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// cutField splits the first field off b, fields being separated by
// white space as bytes.Fields defines it (unicode.IsSpace), without
// allocating. field is empty when b holds no field.
func cutField(b []byte) (field, rest []byte) {
	start := -1
	for i := 0; i < len(b); {
		c, n := b[i], 1
		space := false
		if c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, n = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return b[start:i], b[i:]
		}
		i += n
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}
