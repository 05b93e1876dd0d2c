package lint

import (
	"fmt"
	"sort"
	"strings"

	"tanglefind/internal/netlist"
)

// ruleSpec is the in-house Rule implementation: a flat descriptor plus
// a check function. All builtin rules are ruleSpecs so the registry
// reads as a table.
type ruleSpec struct {
	id    string
	sev   Severity
	doc   string
	dir   bool // needs the driver annotation
	local bool // findings depend only on the anchor's own pins
	check func(r Rule, p *Pass) []Finding
}

func (r *ruleSpec) ID() string              { return r.id }
func (r *ruleSpec) Severity() Severity      { return r.sev }
func (r *ruleSpec) Doc() string             { return r.doc }
func (r *ruleSpec) NeedsDirection() bool    { return r.dir }
func (r *ruleSpec) Local() bool             { return r.local }
func (r *ruleSpec) Check(p *Pass) []Finding { return r.check(r, p) }

// registry lists the builtin rules in report order. Rule ids are part
// of the wire format (configs, fingerprints): never rename one.
var registry = []Rule{
	&ruleSpec{
		id: "multi-driven-net", sev: SevError, dir: true, local: true,
		doc:   "net with two or more driver pins (bus contention)",
		check: checkMultiDriven,
	},
	&ruleSpec{
		id: "undriven-net", sev: SevError, dir: true, local: true,
		doc:   "net with sink pins but no driver",
		check: checkUndriven,
	},
	&ruleSpec{
		id: "floating-net", sev: SevWarning, local: true,
		doc:   "net connecting fewer than two cells",
		check: checkFloating,
	},
	&ruleSpec{
		id: "dangling-cell", sev: SevWarning, dir: true,
		doc:   "cell whose fanout never reaches an output",
		check: checkDangling,
	},
	&ruleSpec{
		id: "comb-loop", sev: SevError, dir: true,
		doc:   "combinational cycle (strongly connected cells with no sequential break)",
		check: checkCombLoop,
	},
	&ruleSpec{
		id: "const-tied", sev: SevWarning, dir: true, local: true,
		doc:   "net driven only by constant-source (tie) cells",
		check: checkConstTied,
	},
	&ruleSpec{
		id: "buffer-chain", sev: SevInfo, dir: true,
		doc:   "chain of single-input single-output cells",
		check: checkBufferChain,
	},
	&ruleSpec{
		id: "size-only", sev: SevInfo, local: true,
		doc:   "cell marked size-only/structural by name",
		check: checkSizeOnly,
	},
	&ruleSpec{
		id: "high-fanout-net", sev: SevWarning, local: true,
		doc:   "net whose pin count reaches the fanout threshold",
		check: checkHighFanout,
	},
}

// Rules returns the builtin rule set in registry (report) order.
func Rules() []Rule {
	out := make([]Rule, len(registry))
	copy(out, registry)
	return out
}

func checkMultiDriven(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	p.EachNet(func(n netlist.NetID) {
		if d := len(nl.NetDrivers(n)); d >= 2 {
			fs = append(fs, p.NetFinding(r, n,
				fmt.Sprintf("net %s has %d drivers", netKey(nl, n), d)))
		}
	})
	return fs
}

func checkUndriven(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	p.EachNet(func(n netlist.NetID) {
		if nl.NetSize(n) > 0 && len(nl.NetDrivers(n)) == 0 {
			fs = append(fs, p.NetFinding(r, n,
				fmt.Sprintf("net %s has no driver", netKey(nl, n))))
		}
	})
	return fs
}

func checkFloating(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	p.EachNet(func(n netlist.NetID) {
		// Zero-pin nets are delta tombstones (bookkeeping, like
		// degree-0 cells); exactly one pin is a real floating wire.
		if nl.NetSize(n) == 1 {
			fs = append(fs, p.NetFinding(r, n,
				fmt.Sprintf("net %s connects a single cell", netKey(nl, n))))
		}
	})
	return fs
}

// checkDangling flags cells whose fanout never reaches an output. An
// output is a connected cell that drives nothing (a pure sink);
// reachability is a reverse BFS from the outputs across driver→sink
// edges. Disconnected (degree-0) cells are ignored — deltas leave
// id-stable tombstones with no pins, and those are bookkeeping, not
// defects.
func checkDangling(r Rule, p *Pass) []Finding {
	nl := p.Netlist()
	numCells := nl.NumCells()
	reached := make([]bool, numCells)
	queue := make([]netlist.CellID, 0, numCells/8+1)
	for c := 0; c < numCells; c++ {
		id := netlist.CellID(c)
		if nl.CellDegree(id) > 0 && p.OutDegree(id) == 0 {
			reached[c] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		c := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		p.EachInNet(c, func(n netlist.NetID) {
			for _, d := range nl.NetDrivers(n) {
				if !reached[d] {
					reached[d] = true
					queue = append(queue, d)
				}
			}
		})
	}
	var fs []Finding
	for c := 0; c < numCells; c++ {
		id := netlist.CellID(c)
		if nl.CellDegree(id) > 0 && !reached[c] {
			fs = append(fs, p.CellFinding(r, id,
				fmt.Sprintf("cell %s has no path to any output", cellKey(nl, id))))
		}
	}
	return fs
}

// isSequential reports whether the cell's name marks it as a
// sequential element (flop/latch), which legally breaks a cycle.
func isSequential(p *Pass, c netlist.CellID) bool {
	name := strings.ToLower(p.Netlist().CellName(c))
	if name == "" {
		return false
	}
	for _, pre := range p.Config().SeqPrefixes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

// checkCombLoop finds strongly connected components of size ≥ 2 in
// the driver→sink cell graph, skipping sequential cells. The Tarjan
// walk is iterative with flat scratch arrays — no recursion, no
// per-cell allocations — so it holds up on million-cell netlists.
func checkCombLoop(r Rule, p *Pass) []Finding {
	nl := p.Netlist()
	numCells := nl.NumCells()

	seq := make([]bool, numCells)
	for c := 0; c < numCells; c++ {
		seq[c] = isSequential(p, netlist.CellID(c))
	}

	const unvisited = int32(-1)
	index := make([]int32, numCells)
	lowlink := make([]int32, numCells)
	onStack := make([]bool, numCells)
	for c := range index {
		index[c] = unvisited
	}
	sccStack := make([]int32, 0, 1024)

	// Explicit DFS frames as parallel flat arrays. Each frame walks the
	// successors of one cell: outIdx selects a driven net; pinIdx and
	// drvIdx cursor through that net's pins and drivers (merge walk to
	// enumerate sinks only).
	var (
		fcell   []int32
		foutIdx []int32
		fpinIdx []int32
		fdrvIdx []int32
	)
	push := func(c int32) {
		fcell = append(fcell, c)
		foutIdx = append(foutIdx, 0)
		fpinIdx = append(fpinIdx, 0)
		fdrvIdx = append(fdrvIdx, 0)
	}

	var fs []Finding
	var next int32
	for root := 0; root < numCells; root++ {
		if index[root] != unvisited || seq[root] {
			continue
		}
		push(int32(root))
		index[root] = next
		lowlink[root] = next
		next++
		onStack[root] = true
		sccStack = append(sccStack, int32(root))

		for len(fcell) > 0 {
			top := len(fcell) - 1
			c := netlist.CellID(fcell[top])
			out := p.OutNets(c)

			// Find the next sink successor of c, resuming cursors.
			var succ int32 = -1
			for foutIdx[top] < int32(len(out)) {
				n := out[foutIdx[top]]
				pins := nl.NetPins(n)
				drv := nl.NetDrivers(n)
				for fpinIdx[top] < int32(len(pins)) {
					s := pins[fpinIdx[top]]
					for fdrvIdx[top] < int32(len(drv)) && drv[fdrvIdx[top]] < s {
						fdrvIdx[top]++
					}
					fpinIdx[top]++
					if fdrvIdx[top] < int32(len(drv)) && drv[fdrvIdx[top]] == s {
						continue // s drives this net too; not a sink
					}
					if seq[s] {
						continue // sequential cells break the cycle
					}
					succ = int32(s)
					break
				}
				if succ >= 0 {
					break
				}
				foutIdx[top]++
				fpinIdx[top] = 0
				fdrvIdx[top] = 0
			}

			if succ >= 0 {
				if index[succ] == unvisited {
					push(succ)
					index[succ] = next
					lowlink[succ] = next
					next++
					onStack[succ] = true
					sccStack = append(sccStack, succ)
				} else if onStack[succ] && lowlink[fcell[top]] > index[succ] {
					lowlink[fcell[top]] = index[succ]
				}
				continue
			}

			// c is exhausted: pop, fold lowlink into the parent, and
			// emit an SCC when c is its root.
			fcell = fcell[:top]
			foutIdx = foutIdx[:top]
			fpinIdx = fpinIdx[:top]
			fdrvIdx = fdrvIdx[:top]
			if top > 0 && lowlink[fcell[top-1]] > lowlink[c] {
				lowlink[fcell[top-1]] = lowlink[c]
			}
			if lowlink[c] != index[c] {
				continue
			}
			// Pop the SCC rooted at c off the component stack.
			start := len(sccStack)
			for {
				start--
				if sccStack[start] == int32(c) {
					break
				}
			}
			members := sccStack[start:]
			sccStack = sccStack[:start]
			if len(members) < 2 {
				onStack[members[0]] = false
				continue
			}
			anchor := members[0]
			keys := make([]string, len(members))
			for i, m := range members {
				onStack[m] = false
				if m < anchor {
					anchor = m
				}
				keys[i] = cellKey(nl, netlist.CellID(m))
			}
			sort.Strings(keys)
			label := strings.Join(keys[:min(len(keys), 6)], ", ")
			if len(keys) > 6 {
				label += ", ..."
			}
			fs = append(fs, p.GroupFinding(r, netlist.CellID(anchor), keys,
				fmt.Sprintf("combinational loop through %d cells: %s", len(members), label)))
		}
	}
	return fs
}

// isTieCell reports whether the cell looks like a constant source:
// it drives but never sinks, and its name matches a tie pattern.
func isTieCell(p *Pass, c netlist.CellID) bool {
	if p.OutDegree(c) == 0 || p.InDegree(c) != 0 {
		return false
	}
	name := strings.ToLower(p.Netlist().CellName(c))
	if name == "" {
		return false
	}
	for _, pat := range p.Config().TiePatterns {
		if strings.Contains(name, pat) {
			return true
		}
	}
	return false
}

func checkConstTied(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	p.EachNet(func(n netlist.NetID) {
		drv := nl.NetDrivers(n)
		if len(drv) == 0 {
			return
		}
		for _, d := range drv {
			if !isTieCell(p, d) {
				return
			}
		}
		fs = append(fs, p.NetFinding(r, n,
			fmt.Sprintf("net %s is tied to a constant by %s",
				netKey(nl, n), cellKey(nl, drv[0]))))
	})
	return fs
}

// checkBufferChain reports maximal chains of buffer-like cells (one
// input net, one driven net, linked through two-pin nets) of length ≥
// MinChain. Such chains are usually repeater insertion or leftover
// synthesis artifacts worth a look.
func checkBufferChain(r Rule, p *Pass) []Finding {
	nl := p.Netlist()
	bufferish := func(c netlist.CellID) bool {
		return p.OutDegree(c) == 1 && p.InDegree(c) == 1
	}
	// nextInChain returns the sole sink fed by c through a two-pin,
	// singly driven net, or -1 if c's output branches.
	nextInChain := func(c netlist.CellID) netlist.CellID {
		n := p.OutNets(c)[0]
		if nl.NetSize(n) != 2 || len(nl.NetDrivers(n)) != 1 {
			return -1
		}
		for _, pin := range nl.NetPins(n) {
			if pin != c {
				return pin
			}
		}
		return -1
	}
	// prevFeeds reports whether some chain cell already leads into c —
	// if so, c is mid-chain and not a chain head.
	prevFeeds := func(c netlist.CellID) bool {
		var in netlist.NetID = -1
		p.EachInNet(c, func(n netlist.NetID) { in = n })
		if in < 0 || nl.NetSize(in) != 2 {
			return false
		}
		drv := nl.NetDrivers(in)
		return len(drv) == 1 && bufferish(drv[0]) && nextInChain(drv[0]) == c
	}

	var fs []Finding
	for ci := 0; ci < nl.NumCells(); ci++ {
		head := netlist.CellID(ci)
		if !bufferish(head) || prevFeeds(head) {
			continue
		}
		length := 1
		last := head
		for {
			s := nextInChain(last)
			if s < 0 || !bufferish(s) {
				break
			}
			last = s
			length++
		}
		if length >= p.Config().MinChain {
			fs = append(fs, p.GroupFinding(r, head,
				[]string{cellKey(nl, head), cellKey(nl, last)},
				fmt.Sprintf("buffer chain of %d cells from %s to %s",
					length, cellKey(nl, head), cellKey(nl, last))))
		}
	}
	return fs
}

func checkSizeOnly(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	p.EachCell(func(c netlist.CellID) {
		if nl.CellDegree(c) == 0 {
			return // tombstones and unplaced spares are not findings
		}
		name := strings.ToLower(nl.CellName(c))
		if name == "" {
			return
		}
		for _, pat := range p.Config().SizeOnlyPatterns {
			if strings.Contains(name, pat) {
				fs = append(fs, p.CellFinding(r, c,
					fmt.Sprintf("cell %s is marked size-only", cellKey(nl, c))))
				return
			}
		}
	})
	return fs
}

func checkHighFanout(r Rule, p *Pass) []Finding {
	var fs []Finding
	nl := p.Netlist()
	max := p.Config().MaxFanout
	p.EachNet(func(n netlist.NetID) {
		if s := nl.NetSize(n); s >= max {
			fs = append(fs, p.NetFinding(r, n,
				fmt.Sprintf("net %s fans out to %d pins (threshold %d)",
					netKey(nl, n), s, max)))
		}
	})
	return fs
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
