// Package group maintains growing cell groups over a netlist with
// incremental cut bookkeeping, plus the set algebra and one-shot
// evaluation used by the finder's refinement phase.
//
// The paper's Phase I adds one cell at a time to a group of up to
// Z = 100K cells; recomputing T(C) from scratch each step would be
// quadratic. Tracker keeps per-net inside-pin counts so Add is
// O(deg(cell)) and T(C), Σ pins and per-net λ(e) are always current.
// Every pin walk here runs over the netlist's flat CSR arrays
// (contiguous subslices per cell/net), so the hot Add/DeltaCut loops
// stream memory instead of chasing per-list pointers.
package group

import (
	"fmt"

	"tanglefind/internal/ds"
	"tanglefind/internal/netlist"
)

// Tracker is an append-only growing group over a fixed netlist.
// Create with NewTracker; Reset recycles it for a new seed without
// reallocating. Tracker is not safe for concurrent use — the finder
// gives each parallel seed its own.
type Tracker struct {
	nl *netlist.Netlist
	in *ds.Bitset
	// state holds, per net, λ(e)<<1 | connected: the net's outside-pin
	// count and whether the group has reached the net yet. Untouched
	// nets sit at NetSize<<1. Encoding λ rather than the inside count
	// lets Add and DeltaCut decide every cut transition from this
	// single value — "becomes cut" is an untouched net with λ≥2
	// (state ≥ 4, low bit 0), "becomes internal" is a connected net at
	// λ=1 (state>>1 == 1, low bit 1) — so the hot loops touch one array
	// where the inside-count encoding needed a NetSize load from a
	// second one per net.
	state   []int32
	touched []netlist.NetID
	members []netlist.CellID
	// absorb holds, per net of the most recently Added cell and
	// aligned with its CellPins run, the AbsorbInfo encoding. Add
	// fills it during its own cut-bookkeeping walk so the finder's
	// absorb loop never re-reads the net state for the same nets.
	absorb []int32
	cut    int // T(S)
	pins   int // Σ_{c∈S} deg(c)
}

// AbsorbInfo bit layout (see AbsorbInfo).
const (
	AbsorbNewBit = 1 << 0 // the add connected the net to the group
	AbsorbShift  = 1      // λ(e) lives in the bits above
)

// NewTracker returns an empty tracker over nl.
func NewTracker(nl *netlist.Netlist) *Tracker {
	t := &Tracker{in: &ds.Bitset{}}
	t.Rebind(nl)
	return t
}

// Rebind empties the tracker and points it at nl: the membership
// bitset and per-net state are resized to nl, reusing their storage
// when it is large enough, and every net's state is re-initialized
// from its size — O(cells/64 + nets).
func (t *Tracker) Rebind(nl *netlist.Netlist) {
	t.nl = nl
	t.in.Resize(nl.NumCells())
	nets := nl.NumNets()
	if cap(t.state) < nets {
		t.state = make([]int32, nets)
	}
	t.state = t.state[:nets]
	for n := range t.state {
		t.state[n] = int32(nl.NetSize(netlist.NetID(n))) << AbsorbShift
	}
	t.touched = t.touched[:0]
	t.members = t.members[:0]
	t.cut = 0
	t.pins = 0
}

// Attach swaps the tracker's netlist reference without touching its
// arrays. Attach(nil) detaches an idle tracker so it does not keep its
// netlist reachable; re-attaching the netlist of the last Rebind
// resumes it. Any other netlist needs Rebind.
func (t *Tracker) Attach(nl *netlist.Netlist) { t.nl = nl }

// Reset empties the group, retaining all allocations.
func (t *Tracker) Reset() {
	for _, n := range t.touched {
		t.state[n] = int32(t.nl.NetSize(n)) << AbsorbShift
	}
	t.touched = t.touched[:0]
	t.members = t.members[:0]
	t.in.Clear()
	t.cut = 0
	t.pins = 0
}

// MemoryFootprint returns the tracker's retained bytes (membership
// bitset, per-net pin counts and scratch capacity), for engine memory
// accounting.
func (t *Tracker) MemoryFootprint() int64 {
	return t.in.Bytes() + int64(cap(t.state))*4 +
		int64(cap(t.touched))*4 + int64(cap(t.members))*4 +
		int64(cap(t.absorb))*4
}

// Size returns |S|.
func (t *Tracker) Size() int { return len(t.members) }

// Cut returns T(S): nets with pins both inside and outside the group.
func (t *Tracker) Cut() int { return t.cut }

// Pins returns the total pin count of the group's cells.
func (t *Tracker) Pins() int { return t.pins }

// Has reports whether cell c is in the group.
func (t *Tracker) Has(c int) bool { return t.in.Has(c) }

// Members returns the cells in insertion order (do not modify).
func (t *Tracker) Members() []netlist.CellID { return t.members }

// NetPinsIn returns |e ∩ S| for net n.
func (t *Tracker) NetPinsIn(n netlist.NetID) int {
	return t.nl.NetSize(n) - int(t.state[n]>>AbsorbShift)
}

// TouchedNets returns every net with at least one member pin, each
// exactly once, in first-touch order. The slice aliases the tracker's
// scratch: do not modify it, and treat it as invalid after Reset.
// Boundary walks use it to visit each incident net once instead of
// once per member.
func (t *Tracker) TouchedNets() []netlist.NetID { return t.touched }

// Add inserts cell c into the group, updating cut and pin counts in
// O(deg(c)). It panics if c is already a member (a finder logic error).
// As a side effect it refreshes the AbsorbInfo scratch for c's nets.
func (t *Tracker) Add(c netlist.CellID) {
	if !t.in.Add(int(c)) {
		panic(fmt.Sprintf("group: cell %d added twice", c))
	}
	nets := t.nl.CellPins(c)
	t.pins += len(nets)
	t.members = append(t.members, c)
	t.absorb = t.absorb[:0]
	for _, n := range nets {
		s := t.state[n]
		if s&AbsorbNewBit == 0 {
			// Net newly connected to the group. λ≥2 (state ≥ 4) means it
			// had other pins, all outside: it becomes externally
			// connected. A single-pin net goes straight to fully
			// internal without ever counting toward the cut.
			t.touched = append(t.touched, n)
			if s >= 2<<AbsorbShift {
				t.cut++
			}
			s += AbsorbNewBit - 1<<AbsorbShift // λ-1, now connected
			t.state[n] = s
			t.absorb = append(t.absorb, s)
		} else {
			s -= 1 << AbsorbShift // λ-1, stays connected
			t.state[n] = s
			if s>>AbsorbShift == 0 {
				t.cut-- // last outside pin absorbed: net became internal
			}
			t.absorb = append(t.absorb, s&^AbsorbNewBit)
		}
	}
}

// AbsorbInfo describes the nets of the most recently Added cell,
// aligned index-for-index with its CellPins run: each entry encodes
// λ(e)<<AbsorbShift | newlyConnected, where λ(e) is the net's
// outside-pin count after the add and AbsorbNewBit marks nets the add
// connected to the group for the first time. The slice aliases tracker
// scratch — read it before the next Add and do not modify it. It
// exists so the finder's absorb loop can reuse the state reads Add
// already paid for instead of making a second pass over the same CSR
// runs.
func (t *Tracker) AbsorbInfo() []int32 { return t.absorb }

// DeltaCut returns the change in T(S) if cell c (currently outside)
// were added. It does not modify the group.
func (t *Tracker) DeltaCut(c netlist.CellID) int {
	d := 0
	for _, n := range t.nl.CellPins(c) {
		s := t.state[n]
		if s&AbsorbNewBit == 0 {
			if s >= 2<<AbsorbShift {
				d++ // untouched net with other pins: becomes cut
			}
			// λ==1 untouched is a single-pin net: no change.
		} else if s>>AbsorbShift == 1 {
			d-- // c is the net's last outside pin: becomes internal
		}
	}
	return d
}

// Snapshot captures the current group as an immutable value.
func (t *Tracker) Snapshot() Set {
	m := make([]netlist.CellID, len(t.members))
	copy(m, t.members)
	return Set{Members: m, Cut: t.cut, Pins: t.pins}
}
