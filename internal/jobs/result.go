package jobs

import (
	"strconv"
	"time"

	"tanglefind"
	"tanglefind/api"
)

// ownQueueWait copies a finished run's stage breakdown for one job:
// the engine and merge stages carry over (they describe the run that
// produced the data), and queue_wait is the job's own.
func ownQueueWait(stages tanglefind.StageTimings, wait time.Duration) tanglefind.StageTimings {
	out := tanglefind.StageTimings{"queue_wait": max(wait, 0)}
	for name, d := range stages {
		if name != "queue_wait" {
			out[name] = d
		}
	}
	return out
}

// lintKey is a lint job's compute identity: the digest plus the
// canonical rule configuration.
func lintKey(digest string, cfg tanglefind.LintConfig) string {
	return "lint|" + digest + "|" + cfg.CacheKey()
}

// applyMitigation attaches the cluster/decompose summary for the
// non-find kinds, operating on the groups the finder detected in nl.
func (r *run) applyMitigation(nl *tanglefind.Netlist, res *tanglefind.Result, out *api.JobResult) error {
	if r.kind == api.KindFind || r.kind == api.KindFindIncremental {
		return nil
	}
	groups := make([][]tanglefind.CellID, len(res.GTLs))
	for i := range res.GTLs {
		groups[i] = res.GTLs[i].Members
	}
	switch r.kind {
	case api.KindCluster:
		cl, err := tanglefind.Cluster(nl, groups)
		if err != nil {
			return err
		}
		out.Cluster = &api.ClusterInfo{
			Macros:     len(cl.Groups),
			MacroCells: cl.Clustered.NumCells(),
			MacroNets:  cl.Clustered.NumNets(),
		}
	case api.KindDecompose:
		rs, err := tanglefind.Decompose(nl, groups, r.maxPins)
		if err != nil {
			return err
		}
		out.Decompose = &api.DecomposeInfo{
			CellsAdded: rs.CellsAdded,
			Cells:      rs.Netlist.NumCells(),
			Nets:       rs.Netlist.NumNets(),
			Pins:       rs.Netlist.NumPins(),
		}
	}
	return nil
}

// findResult converts an engine result to its wire form. Member
// slices are shared with the engine result, which is immutable once
// returned.
func findResult(res *tanglefind.Result) *api.JobResult {
	out := &api.JobResult{
		GTLs:        make([]api.GTLInfo, 0, len(res.GTLs)),
		Candidates:  res.Candidates,
		SeedsRun:    len(res.Seeds),
		Rent:        res.Rent,
		EngineMS:    float64(res.Elapsed) / float64(time.Millisecond),
		Levels:      res.Levels,
		Incremental: res.Incremental,
		Sched:       res.Sched,
	}
	for i := range res.GTLs {
		g := &res.GTLs[i]
		out.GTLs = append(out.GTLs, api.GTLInfo{
			Size:    g.Size(),
			Cut:     g.Cut,
			Pins:    g.Pins,
			NGTLS:   g.NGTLS,
			GTLSD:   g.GTLSD,
			Rent:    g.Rent,
			Seed:    g.Seed,
			Members: g.Members,
		})
	}
	return out
}

// cacheKey is a find-family request's compute identity: kind, digest,
// decompose pin cap and Options.Key, so requests that differ only in
// what the run never reads (worker count, recording, a flat run's
// coarsening fields) share a cache line.
func cacheKey(kind api.Kind, digest string, maxPins int, opt tanglefind.Options) string {
	return string(kind) + "|" + digest + "|" + strconv.Itoa(maxPins) + "|" + opt.Key()
}

// incrKey addresses recorded incremental state: one slot per digest
// and Options.Key. A find job recorded with record_incremental and a
// later find_incremental job on a derived digest land on the same key
// family, which is exactly the chain the state exists for.
func incrKey(digest string, opt tanglefind.Options) string {
	return digest + "|" + opt.Key()
}
