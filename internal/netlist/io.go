package netlist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
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

// Read parses a .tfnet stream produced by Write.
func Read(r io.Reader) (*Netlist, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	// next returns the next line that is neither blank nor a comment,
	// trimmed; it stays valid until the following call.
	next := func() ([]byte, bool) {
		for sc.Scan() {
			line++
			t := bytes.TrimSpace(sc.Bytes())
			if len(t) == 0 || t[0] == '#' {
				continue
			}
			return t, true
		}
		return nil, false
	}
	hdr, ok := next()
	if !ok || !bytes.HasPrefix(hdr, []byte("tfnet ")) {
		return nil, fmt.Errorf("netlist: line %d: missing tfnet header", line)
	}
	cellsLine, ok := next()
	if !ok {
		return nil, fmt.Errorf("netlist: line %d: missing cells line", line)
	}
	var numCells int
	if _, err := fmt.Sscanf(string(cellsLine), "cells %d", &numCells); err != nil {
		return nil, fmt.Errorf("netlist: line %d: bad cells line: %v", line, err)
	}
	if numCells < 0 || numCells > math.MaxInt32 {
		return nil, fmt.Errorf("netlist: line %d: cell count %d out of range", line, numCells)
	}
	var b Builder
	b.AddCells(numCells)
	// One scratch pin list and driver list serve every net line, since
	// AddNet copies.
	var cells, drivers []CellID
	for {
		t, ok := next()
		if !ok {
			break
		}
		fields := bytes.Fields(t)
		if string(fields[0]) != "net" || len(fields) < 2 {
			return nil, fmt.Errorf("netlist: line %d: expected net line, got %q", line, t)
		}
		cells, drivers = cells[:0], drivers[:0]
		for _, f := range fields[2:] {
			raw, isDrv := bytes.CutPrefix(f, []byte("*"))
			id, err := strconv.Atoi(string(raw))
			if err != nil || id < math.MinInt32 || id > math.MaxInt32 {
				return nil, fmt.Errorf("netlist: line %d: bad cell id %q", line, f)
			}
			cells = append(cells, CellID(id))
			if isDrv {
				drivers = append(drivers, CellID(id))
			}
		}
		id := b.AddNet(string(fields[1]), cells...)
		if len(drivers) > 0 {
			b.MarkDrivers(id, drivers...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: read: %w", err)
	}
	// The cell count is a bare header claim, and Build allocates
	// O(cells): hold it to the .tfb reader's rule before building.
	if implausibleCells(numCells, len(b.pins)) {
		return nil, fmt.Errorf("netlist: implausible header: %d cells backed by only %d pins", numCells, len(b.pins))
	}
	return b.Build()
}
