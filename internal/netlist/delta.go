package netlist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"tanglefind/internal/ds"
)

// Delta is an ECO-style edit batch against a parent netlist: append
// cells, disconnect (remove) cells, replace net pin sets, append nets
// and remove nets. Net splits and merges are composed from these
// primitives with the SplitNet/MergeNets helpers.
//
// Id stability is the contract that makes incremental detection
// possible: applying a delta never renumbers a surviving cell or net.
// A removed cell or net stays in the id space as a tombstone — an
// empty pin run that keeps its name and area, so a later delta can
// reconnect it — with one exception: a removed *suffix* of the id
// space genuinely shrinks the arrays. The exception is what lets
// Inverse of an append be an exact undo (apply → inverse-apply
// round-trips the CSR bit-identically, see Inverse).
//
// New cells are addressable by the edits of the same delta: AddNets
// and SetNets may pin ids in [NumCells, NumCells+len(AddCells)).
// Removing a cell implicitly drops its pin from every net; a delta may
// not remove a cell or net it also adds or edits.
type Delta struct {
	// AddCells appends new cells; the i-th gets id NumCells+i.
	AddCells []NewCell `json:"add_cells,omitempty"`
	// RemoveCells disconnects cells: their pins are dropped from every
	// incident net. Duplicates are tolerated.
	RemoveCells []CellID `json:"remove_cells,omitempty"`
	// SetNets replaces the full pin set of existing nets (reconnect).
	SetNets []NetEdit `json:"set_nets,omitempty"`
	// AddNets appends new nets; the i-th gets id NumNets+i.
	AddNets []NewNet `json:"add_nets,omitempty"`
	// RemoveNets empties existing nets. Duplicates are tolerated.
	RemoveNets []NetID `json:"remove_nets,omitempty"`
}

// NewCell describes one appended cell.
type NewCell struct {
	Name string `json:"name,omitempty"`
	// Area is the placement area; <= 0 means unit area.
	Area float64 `json:"area,omitempty"`
}

// NewNet describes one appended net. Drivers (optional, only valid
// against a directed parent) lists which of Cells drive the net; an
// absent list appends an undriven net.
type NewNet struct {
	Name    string   `json:"name,omitempty"`
	Cells   []CellID `json:"cells"`
	Drivers []CellID `json:"drivers,omitempty"`
}

// NetEdit replaces the pin set of one existing net. Duplicate cells
// are collapsed; the stored run is sorted ascending like every other.
// Against a directed parent the edit is authoritative for direction
// too: Drivers lists the resulting driver pins (subset of Cells), and
// an absent list leaves the net undriven.
type NetEdit struct {
	Net     NetID    `json:"net"`
	Cells   []CellID `json:"cells"`
	Drivers []CellID `json:"drivers,omitempty"`
}

// Empty reports whether the delta contains no operations.
func (d *Delta) Empty() bool {
	return len(d.AddCells) == 0 && len(d.RemoveCells) == 0 &&
		len(d.SetNets) == 0 && len(d.AddNets) == 0 && len(d.RemoveNets) == 0
}

// ParseDelta decodes a JSON delta document, rejecting unknown fields.
func ParseDelta(data []byte) (*Delta, error) {
	d := &Delta{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(d); err != nil {
		return nil, fmt.Errorf("netlist: parse delta: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("netlist: parse delta: trailing data after JSON document")
	}
	return d, nil
}

// SplitNet appends the operations that move the given cells off net n
// onto a fresh net (returned id is in the post-apply id space). Every
// moved cell must currently pin n.
func (d *Delta) SplitNet(nl *Netlist, n NetID, moved []CellID, newName string) (NetID, error) {
	if n < 0 || int(n) >= nl.NumNets() {
		return 0, fmt.Errorf("netlist: split: net %d out of range", n)
	}
	cur := nl.NetPins(n)
	onNet := make(map[CellID]bool, len(cur))
	for _, c := range cur {
		onNet[c] = true
	}
	movedSet := make(map[CellID]bool, len(moved))
	for _, c := range moved {
		if !onNet[c] {
			return 0, fmt.Errorf("netlist: split: cell %d not on net %d", c, n)
		}
		movedSet[c] = true
	}
	keep := make([]CellID, 0, len(cur)-len(movedSet))
	for _, c := range cur {
		if !movedSet[c] {
			keep = append(keep, c)
		}
	}
	d.SetNets = append(d.SetNets, NetEdit{Net: n, Cells: keep})
	id := NetID(nl.NumNets() + len(d.AddNets))
	d.AddNets = append(d.AddNets, NewNet{Name: newName, Cells: append([]CellID(nil), moved...)})
	return id, nil
}

// MergeNets appends the operations that fold net `from` into net
// `into`: into's pin set becomes the union, from is removed.
func (d *Delta) MergeNets(nl *Netlist, into, from NetID) error {
	if into < 0 || int(into) >= nl.NumNets() || from < 0 || int(from) >= nl.NumNets() {
		return fmt.Errorf("netlist: merge: net out of range (%d, %d)", into, from)
	}
	if into == from {
		return fmt.Errorf("netlist: merge: net %d with itself", into)
	}
	union := append([]CellID(nil), nl.NetPins(into)...)
	union = append(union, nl.NetPins(from)...)
	d.SetNets = append(d.SetNets, NetEdit{Net: into, Cells: union})
	d.RemoveNets = append(d.RemoveNets, from)
	return nil
}

// DeltaEffect summarizes what Apply changed, in the child id space.
type DeltaEffect struct {
	// Dirty is the sorted set of cells whose connectivity changed:
	// removed and added cells plus every cell on a touched net (old or
	// new pin set). This is the seed set incremental detection guards
	// reuse against.
	Dirty []CellID
	// TouchedNets counts edited, removed and added nets.
	TouchedNets  int
	CellsAdded   int
	CellsRemoved int
	NetsAdded    int
	NetsRemoved  int
	// CellsTruncated/NetsTruncated count removed trailing entries that
	// genuinely left the id space instead of tombstoning.
	CellsTruncated int
	NetsTruncated  int
}

// deltaPlan is the validated, canonicalized form of a delta against
// one parent netlist, shared by Apply and Inverse so the two agree on
// tombstoning and truncation.
type deltaPlan struct {
	nCells, nNets   int
	directed        bool       // parent carries a driver annotation
	removedCell     *ds.Bitset // parent-id space
	removedNet      *ds.Bitset
	nRemovedCells   int
	nRemovedNets    int
	edited          map[NetID][]CellID // canonical (sorted, deduped) replacement runs
	editedDrv       map[NetID][]CellID // canonical driver runs for edited nets
	touchedNet      *ds.Bitset         // edited ∪ removed ∪ incident-to-removed-cell
	newCellsRaw     int                // nCells + adds, before truncation
	newNetsRaw      int
	truncCellStart  int // first truncated cell id (== newCellsRaw when none)
	truncNetStart   int
	addNetCanonical [][]CellID // canonical pin runs for AddNets
	addNetDrv       [][]CellID // canonical driver runs for AddNets
}

// plan validates d against nl and computes the canonical edit plan.
func (d *Delta) plan(nl *Netlist) (*deltaPlan, error) {
	p := &deltaPlan{
		nCells:      nl.NumCells(),
		nNets:       nl.NumNets(),
		directed:    nl.Directed(),
		removedCell: ds.NewBitset(nl.NumCells()),
		removedNet:  ds.NewBitset(nl.NumNets()),
		edited:      make(map[NetID][]CellID, len(d.SetNets)),
		editedDrv:   make(map[NetID][]CellID, len(d.SetNets)),
		touchedNet:  ds.NewBitset(nl.NumNets()),
	}
	cellSpace := p.nCells + len(d.AddCells)
	for i, c := range d.AddCells {
		if c.Area < 0 || math.IsNaN(c.Area) || math.IsInf(c.Area, 0) {
			return nil, fmt.Errorf("netlist: delta: added cell %d has invalid area %g", i, c.Area)
		}
	}
	for _, c := range d.RemoveCells {
		if c < 0 || int(c) >= p.nCells {
			return nil, fmt.Errorf("netlist: delta: remove of unknown cell %d", c)
		}
		if p.removedCell.Add(int(c)) {
			p.nRemovedCells++
		}
	}
	for _, n := range d.RemoveNets {
		if n < 0 || int(n) >= p.nNets {
			return nil, fmt.Errorf("netlist: delta: remove of unknown net %d", n)
		}
		if p.removedNet.Add(int(n)) {
			p.nRemovedNets++
		}
		p.touchedNet.Add(int(n))
	}
	checkPins := func(what string, cells []CellID) ([]CellID, error) {
		out := make([]CellID, len(cells))
		copy(out, cells)
		slices.Sort(out)
		out = slices.Compact(out)
		for _, c := range out {
			if c < 0 || int(c) >= cellSpace {
				return nil, fmt.Errorf("netlist: delta: %s pins unknown cell %d", what, c)
			}
			if int(c) < p.nCells && p.removedCell.Has(int(c)) {
				return nil, fmt.Errorf("netlist: delta: %s pins cell %d removed by the same delta", what, c)
			}
		}
		return out, nil
	}
	// checkDrivers canonicalizes an edit's driver list: deduped, a
	// subset of the net's canonical pin run, and only meaningful
	// against a directed parent (a delta cannot introduce direction
	// information — that would make apply → inverse-apply lossy).
	checkDrivers := func(what string, drivers, run []CellID) ([]CellID, error) {
		if len(drivers) == 0 {
			return nil, nil
		}
		if !p.directed {
			return nil, fmt.Errorf("netlist: delta: %s specifies drivers but the parent netlist is undirected", what)
		}
		drv := make([]CellID, len(drivers))
		copy(drv, drivers)
		slices.Sort(drv)
		drv = slices.Compact(drv)
		if err := checkSubset(drv, run); err != nil {
			return nil, fmt.Errorf("netlist: delta: %s: %w", what, err)
		}
		return drv, nil
	}
	for _, e := range d.SetNets {
		if e.Net < 0 || int(e.Net) >= p.nNets {
			return nil, fmt.Errorf("netlist: delta: edit of unknown net %d (new nets take their pins from add_nets)", e.Net)
		}
		if p.removedNet.Has(int(e.Net)) {
			return nil, fmt.Errorf("netlist: delta: net %d both edited and removed", e.Net)
		}
		if _, dup := p.edited[e.Net]; dup {
			return nil, fmt.Errorf("netlist: delta: net %d edited twice", e.Net)
		}
		what := fmt.Sprintf("edit of net %d", e.Net)
		run, err := checkPins(what, e.Cells)
		if err != nil {
			return nil, err
		}
		drv, err := checkDrivers(what, e.Drivers, run)
		if err != nil {
			return nil, err
		}
		p.edited[e.Net] = run
		p.editedDrv[e.Net] = drv
		p.touchedNet.Add(int(e.Net))
	}
	p.addNetCanonical = make([][]CellID, len(d.AddNets))
	p.addNetDrv = make([][]CellID, len(d.AddNets))
	for i, an := range d.AddNets {
		what := fmt.Sprintf("added net %d", i)
		run, err := checkPins(what, an.Cells)
		if err != nil {
			return nil, err
		}
		drv, err := checkDrivers(what, an.Drivers, run)
		if err != nil {
			return nil, err
		}
		p.addNetCanonical[i] = run
		p.addNetDrv[i] = drv
	}
	// Nets incident to removed cells are implicitly edited.
	if p.nRemovedCells > 0 {
		p.removedCell.ForEach(func(c int) {
			for _, n := range nl.CellPins(CellID(c)) {
				p.touchedNet.Add(int(n))
			}
		})
	}
	// Suffix truncation: a removed tail leaves the id space for real,
	// but appends occupy the tail first, so adds disable truncation.
	p.newCellsRaw = p.nCells + len(d.AddCells)
	p.truncCellStart = p.newCellsRaw
	if len(d.AddCells) == 0 {
		for p.truncCellStart > 0 && p.removedCell.Has(p.truncCellStart-1) {
			p.truncCellStart--
		}
	}
	p.newNetsRaw = p.nNets + len(d.AddNets)
	p.truncNetStart = p.newNetsRaw
	if len(d.AddNets) == 0 {
		for p.truncNetStart > 0 && p.removedNet.Has(p.truncNetStart-1) {
			p.truncNetStart--
		}
	}
	return p, nil
}

// Validate checks the delta against its parent netlist without
// applying it.
func (d *Delta) Validate(nl *Netlist) error {
	_, err := d.plan(nl)
	return err
}

// Apply patches nl, returning the child netlist and the effect
// summary. The parent is never mutated — child and parent share no
// mutable state, so both stay usable concurrently.
//
// Only touched pin runs are rebuilt (sorted, deduped, validated);
// untouched runs are copied verbatim into the child's CSR arrays, and
// the cell-side direction is re-derived with the same counting pass
// the .tfb loader uses. The name tables are shared with the parent
// unless the delta names an added cell or net, and the area table
// unless it adds a cell; added names are kept up to the last named id.
func (d *Delta) Apply(nl *Netlist) (*Netlist, *DeltaEffect, error) {
	p, err := d.plan(nl)
	if err != nil {
		return nil, nil, err
	}
	newNets := p.truncNetStart
	newCells := p.truncCellStart

	netPinOff, netPinCell, err := p.pack(newNets, p.addNetCanonical, p.edited, nl.NetPins)
	if err != nil {
		return nil, nil, err
	}

	// Names and areas: tombstones keep theirs (a later delta can
	// reconnect the cell); truncated entries drop for real.
	netNames := extendNames(nl.netNames, p.nNets, newNets, len(d.AddNets), func(i int) string { return d.AddNets[i].Name })
	cellNames := extendNames(nl.cellNames, p.nCells, newCells, len(d.AddCells), func(i int) string { return d.AddCells[i].Name })
	cellArea := extendAreas(nl.cellArea, p.nCells, newCells, d.AddCells)

	child := fromNetCSR(newCells, netPinOff, netPinCell, netNames, cellNames, cellArea)

	// Direction: a directed parent yields a directed child (and an
	// undirected parent cannot gain drivers — plan rejects that).
	// Edited and added nets take the delta's (canonical) driver lists.
	if p.directed {
		drvOff, drvCell, err := p.pack(newNets, p.addNetDrv, p.editedDrv, nl.NetDrivers)
		if err != nil {
			return nil, nil, err
		}
		child.attachDrivers(drvOff, drvCell)
	}

	// Dirty set: removed and added cells plus every cell on a touched
	// net, before or after the edit — all clamped to the child space.
	dirty := ds.NewBitset(newCells)
	mark := func(c CellID) {
		if int(c) < newCells {
			dirty.Add(int(c))
		}
	}
	p.removedCell.ForEach(func(c int) { mark(CellID(c)) })
	for i := range d.AddCells {
		mark(CellID(p.nCells + i))
	}
	touched := 0
	p.touchedNet.ForEach(func(n int) {
		touched++
		for _, c := range nl.NetPins(NetID(n)) {
			mark(c)
		}
		if n < newNets {
			for _, c := range child.NetPins(NetID(n)) {
				mark(c)
			}
		}
	})
	for _, r := range p.addNetCanonical {
		touched++
		for _, c := range r {
			mark(c)
		}
	}
	eff := &DeltaEffect{
		TouchedNets:    touched,
		CellsAdded:     len(d.AddCells),
		CellsRemoved:   p.nRemovedCells,
		NetsAdded:      len(d.AddNets),
		NetsRemoved:    p.nRemovedNets,
		CellsTruncated: p.newCellsRaw - p.truncCellStart,
		NetsTruncated:  p.newNetsRaw - p.truncNetStart,
	}
	eff.Dirty = make([]CellID, 0, dirty.Len())
	dirty.ForEach(func(c int) { eff.Dirty = append(eff.Dirty, CellID(c)) })
	return child, eff, nil
}

// pack builds the child's CSR arrays for one kind of per-net run — pin
// runs or driver runs — over the child's first newNets nets: an added
// net takes its run from added, an edited net from edited, a removed
// net none, a net incident to a removed cell the parent's run (read
// through parentRun) without the removed cells, and every other net
// the parent's run verbatim.
func (p *deltaPlan) pack(newNets int, added [][]CellID, edited map[NetID][]CellID, parentRun func(NetID) []CellID) ([]int32, []CellID, error) {
	run := func(n int) []CellID {
		switch {
		case n >= p.nNets:
			return added[n-p.nNets]
		case p.removedNet.Has(n):
			return nil
		}
		if r, ok := edited[NetID(n)]; ok {
			return r
		}
		old := parentRun(NetID(n))
		if !p.touchedNet.Has(n) {
			return old
		}
		// Incident to a removed cell: drop the removed pins, keep the
		// (already ascending) remainder.
		kept := make([]CellID, 0, len(old))
		for _, c := range old {
			if !p.removedCell.Has(int(c)) {
				kept = append(kept, c)
			}
		}
		return kept
	}
	total := 0
	for n := 0; n < newNets; n++ {
		total += len(run(n))
	}
	if total > math.MaxInt32 {
		return nil, nil, fmt.Errorf("netlist: delta: %d pins overflow the int32 CSR offset space", total)
	}
	off := make([]int32, newNets+1)
	cells := make([]CellID, total)
	at := int32(0)
	for n := 0; n < newNets; n++ {
		off[n] = at
		at += int32(copy(cells[at:], run(n)))
	}
	off[newNets] = at
	return off, cells, nil
}

// Inverse computes the delta that exactly undoes d: with
// child, _, _ := d.Apply(parent) and inv, _ := d.Inverse(parent),
// inv.Apply(child) reproduces parent bit-identically — CSR arrays,
// names and areas. Tombstoned entries get their pins restored via
// SetNets (their metadata never left); truncated entries are
// re-appended in id order so they regain their exact ids.
func (d *Delta) Inverse(parent *Netlist) (*Delta, error) {
	p, err := d.plan(parent)
	if err != nil {
		return nil, err
	}
	inv := &Delta{}
	// Undo appended cells/nets: remove them. They sit at the tail of
	// the child, so applying the inverse truncates them away.
	for i := range d.AddCells {
		inv.RemoveCells = append(inv.RemoveCells, CellID(p.nCells+i))
	}
	for i := range d.AddNets {
		inv.RemoveNets = append(inv.RemoveNets, NetID(p.nNets+i))
	}
	// Undo truncation: re-append the dropped tail with its metadata.
	for c := p.truncCellStart; c < p.nCells; c++ {
		inv.AddCells = append(inv.AddCells, NewCell{
			Name: rawName(parent.cellNames, c),
			Area: parent.CellArea(CellID(c)),
		})
	}
	for n := p.truncNetStart; n < p.nNets; n++ {
		inv.AddNets = append(inv.AddNets, NewNet{
			Name:    rawName(parent.netNames, n),
			Cells:   append([]CellID(nil), parent.NetPins(NetID(n))...),
			Drivers: append([]CellID(nil), parent.NetDrivers(NetID(n))...),
		})
	}
	// Restore every surviving touched net's parent pin set (drivers
	// included — NetDrivers is nil on undirected parents, so the field
	// stays absent there).
	p.touchedNet.ForEach(func(n int) {
		if n >= p.truncNetStart {
			return // truncated: restored via AddNets above
		}
		inv.SetNets = append(inv.SetNets, NetEdit{
			Net:     NetID(n),
			Cells:   append([]CellID(nil), parent.NetPins(NetID(n))...),
			Drivers: append([]CellID(nil), parent.NetDrivers(NetID(n))...),
		})
	})
	return inv, nil
}

// extendNames returns the child's name table for n ids from the
// parent's (possibly nil or short) table over base ids and the added
// ids' names. When no added id is named the child shares the parent's
// table, resliced to n with capped capacity: the parent is immutable
// and an append can never write into its array. Otherwise the table is
// copied and extended only up to the last named added id, as Build
// keeps names.
func extendNames(names []string, base, n, added int, name func(int) string) []string {
	last := -1
	for i := 0; i < added; i++ {
		if name(i) != "" {
			last = i
		}
	}
	if last < 0 {
		n = min(n, len(names))
		return names[:n:n]
	}
	out := make([]string, base+last+1)
	copy(out, names)
	for i := 0; i <= last; i++ {
		out[base+i] = name(i)
	}
	return out
}

// extendAreas returns the child's area table for n cells from the
// parent's table over base cells and the added cells' areas (<= 0
// means unit). A delta that adds no cell shares the parent's table,
// resliced to n with capped capacity. A parent with implicit unit
// areas stays implicit when every added cell is unit too.
func extendAreas(area []float64, base, n int, added []NewCell) []float64 {
	if len(added) == 0 {
		if area == nil {
			return nil
		}
		return area[:n:n]
	}
	allUnit := area == nil
	if allUnit {
		for _, c := range added {
			if c.Area > 0 && c.Area != 1 {
				allUnit = false
				break
			}
		}
		if allUnit {
			return nil
		}
	}
	out := make([]float64, base+len(added))
	if area == nil {
		for i := 0; i < base; i++ {
			out[i] = 1
		}
	} else {
		copy(out, area)
	}
	for i, c := range added {
		a := c.Area
		if a <= 0 {
			a = 1
		}
		out[base+i] = a
	}
	return out
}

// rawName returns the stored (not synthesized) name for id i.
func rawName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return ""
}

// SameStructure reports whether two netlists are bit-identical in CSR
// structure, names and areas — the equality the delta round-trip
// (Apply then Inverse-apply) guarantees. It is O(pins) and intended
// for tests and content-address sanity checks.
func (nl *Netlist) SameStructure(o *Netlist) error {
	if nl.NumCells() != o.NumCells() || nl.NumNets() != o.NumNets() || nl.NumPins() != o.NumPins() {
		return fmt.Errorf("netlist: shape differs: %dx%dx%d vs %dx%dx%d",
			nl.NumCells(), nl.NumNets(), nl.NumPins(), o.NumCells(), o.NumNets(), o.NumPins())
	}
	for n := 0; n < nl.NumNets(); n++ {
		a, b := nl.NetPins(NetID(n)), o.NetPins(NetID(n))
		if len(a) != len(b) {
			return fmt.Errorf("netlist: net %d size %d vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("netlist: net %d pin %d: cell %d vs %d", n, i, a[i], b[i])
			}
		}
		if nl.NetName(NetID(n)) != o.NetName(NetID(n)) {
			return fmt.Errorf("netlist: net %d name %q vs %q", n, nl.NetName(NetID(n)), o.NetName(NetID(n)))
		}
	}
	if nl.Directed() != o.Directed() {
		return fmt.Errorf("netlist: directed %v vs %v", nl.Directed(), o.Directed())
	}
	for n := 0; n < nl.NumNets(); n++ {
		a, b := nl.NetDrivers(NetID(n)), o.NetDrivers(NetID(n))
		if len(a) != len(b) {
			return fmt.Errorf("netlist: net %d has %d drivers vs %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("netlist: net %d driver %d: cell %d vs %d", n, i, a[i], b[i])
			}
		}
	}
	for c := 0; c < nl.NumCells(); c++ {
		if nl.CellName(CellID(c)) != o.CellName(CellID(c)) {
			return fmt.Errorf("netlist: cell %d name %q vs %q", c, nl.CellName(CellID(c)), o.CellName(CellID(c)))
		}
		if nl.CellArea(CellID(c)) != o.CellArea(CellID(c)) {
			return fmt.Errorf("netlist: cell %d area %g vs %g", c, nl.CellArea(CellID(c)), o.CellArea(CellID(c)))
		}
	}
	return nil
}
