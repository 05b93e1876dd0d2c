package main

import (
	"context"
	"fmt"
	"math"
	"slices"

	"tanglefind"
	"tanglefind/api"
)

// minBlockRecovery is the share of every planted block a detection must
// put into one reported group. Growth can trim a few boundary cells of a
// block, so recovery is not always complete; on 720 generated netlists
// every block kept at least 99% of its cells.
const minBlockRecovery = 0.98

// scoreTol is how far served scores may drift from the engine's after
// the JSON round trip.
const scoreTol = 1e-9

// group is a detected group in comparable form: sorted members plus
// the scores.
type group struct {
	members      []tanglefind.CellID
	cut, pins    int
	ngtls, gtlsd float64
}

func groupsFromAPI(gs []api.GTLInfo) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i] = group{slices.Sorted(slices.Values(g.Members)), g.Cut, g.Pins, g.NGTLS, g.GTLSD}
	}
	return sortGroups(out)
}

func groupsFromEngine(gs []tanglefind.GTL) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		out[i] = group{slices.Sorted(slices.Values(g.Members)), g.Cut, g.Pins, g.NGTLS, g.GTLSD}
	}
	return sortGroups(out)
}

func sortGroups(gs []group) []group {
	slices.SortFunc(gs, func(a, b group) int { return slices.Compare(a.members, b.members) })
	return gs
}

// diffGroups reports the first difference between two detections.
func diffGroups(got, want []group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case !slices.Equal(g.members, w.members):
			return fmt.Errorf("group %d has %d members, want %d (member sets differ)", i, len(g.members), len(w.members))
		case g.cut != w.cut || g.pins != w.pins:
			return fmt.Errorf("group %d cut/pins %d/%d, want %d/%d", i, g.cut, g.pins, w.cut, w.pins)
		case math.Abs(g.ngtls-w.ngtls) > scoreTol || math.Abs(g.gtlsd-w.gtlsd) > scoreTol:
			return fmt.Errorf("group %d scores %g/%g, want %g/%g", i, g.ngtls, g.gtlsd, w.ngtls, w.gtlsd)
		}
	}
	return nil
}

// recovery returns the union share of planted cells inside reported
// groups, in percent, and the smallest share of any one block that a
// single group holds.
func recovery(blocks [][]tanglefind.CellID, gs []group) (pct, worstBlock float64) {
	in := make(map[tanglefind.CellID]int) // cell -> 1 + index of its group
	for i, g := range gs {
		for _, c := range g.members {
			in[c] = i + 1
		}
	}
	hit, total := 0, 0
	worstBlock = 1
	for _, b := range blocks {
		per := make(map[int]int)
		for _, c := range b {
			if gi := in[c]; gi > 0 {
				hit++
				per[gi]++
			}
		}
		total += len(b)
		best := 0
		for _, n := range per {
			best = max(best, n)
		}
		worstBlock = min(worstBlock, float64(best)/float64(len(b)))
	}
	return 100 * float64(hit) / float64(total), worstBlock
}

// checkQuality requires a detection to report one group per planted
// block, each holding nearly all of its block.
func checkQuality(blocks [][]tanglefind.CellID, gs []group) error {
	if len(gs) != len(blocks) {
		return fmt.Errorf("%d groups reported for %d planted blocks", len(gs), len(blocks))
	}
	if _, worst := recovery(blocks, gs); worst < minBlockRecovery {
		return fmt.Errorf("only %.2f%% of a planted block recovered", 100*worst)
	}
	return nil
}

// checkDetections requires every detection of a netlist's revisions to
// equal refs[netlist]. A netlist without a reference takes its first
// detection as one, so all its revisions must agree.
func checkDetections(refs [][]group, ops []op) []string {
	var problems []string
	for _, o := range ops {
		if o.job == nil || o.job.status.Result == nil {
			continue // a failed op is counted on its own
		}
		got := groupsFromAPI(o.job.status.Result.GTLs)
		if refs[o.netlist] == nil {
			refs[o.netlist] = got
			continue
		}
		if err := diffGroups(got, refs[o.netlist]); err != nil {
			problems = append(problems, fmt.Sprintf("op %d (%s): detection of netlist %d differs: %v", o.id, o.kind, o.netlist, err))
		}
	}
	return problems
}

// check runs the correctness checks after the window; none of it is
// timed. It returns the engine's own run on the first netlist, the
// checked detection of every netlist (nil where no op detected it), and
// every problem found.
func (r *runner) check(ctx context.Context, ops []op, clients []*serveClient) (*tanglefind.Result, [][]group, []string) {
	var problems []string
	for _, o := range ops {
		if o.err != nil {
			problems = append(problems, fmt.Sprintf("op %d (%s) failed: %v", o.id, o.kind, o.err))
		}
	}

	// The engine's own run over the first netlist as the benchmark read
	// it back, through the facade, with the options of the served finds.
	// Every served detection of that netlist must equal it; those of the
	// other netlists must agree among themselves.
	f, err := tanglefind.NewFinder(r.env.ins[0].nl)
	if err != nil {
		return nil, nil, append(problems, fmt.Sprintf("reference engine: %v", err))
	}
	ref, err := f.Find(ctx, r.s.options(r.seed))
	if err != nil {
		return nil, nil, append(problems, fmt.Sprintf("reference run: %v", err))
	}
	refs := make([][]group, len(r.env.ins))
	refs[0] = groupsFromEngine(ref.GTLs)
	prime := op{kind: "prime", job: &jobRun{status: r.env.prime}}
	problems = append(problems, checkDetections(refs, []op{prime})...)

	if !r.s.Serve {
		detects := slices.DeleteFunc(slices.Clone(ops), func(o op) bool { return o.kind != kindDetect })
		problems = append(problems, checkDetections(refs, detects)...)
		for j, in := range r.env.ins {
			if refs[j] == nil {
				continue // no successful op on it; the failures are reported
			}
			if err := checkQuality(in.blocks, refs[j]); err != nil {
				problems = append(problems, fmt.Sprintf("netlist %d: %v", j, err))
			}
		}
		return ref, refs, problems
	}

	// serve_eco: every client's head, detected from scratch, must match
	// what the incremental chain reported for it.
	for i, c := range clients {
		opt := r.s.options(r.seed)
		jr, err := r.runJob(ctx, jobRequest(api.KindFind, c.head, opt))
		if err != nil {
			problems = append(problems, fmt.Sprintf("client %d head find: %v", i, err))
			continue
		}
		if err := diffGroups(groupsFromAPI(jr.status.Result.GTLs), groupsFromAPI(c.result.GTLs)); err != nil {
			problems = append(problems, fmt.Sprintf("client %d head: incremental result differs from a full find: %v", i, err))
		}
	}
	return ref, refs, problems
}
