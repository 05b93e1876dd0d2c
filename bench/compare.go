package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads every result record (--out files) in dir, grouped
// by workload, each group in file-name order.
func loadRecords(dir string) (map[string][]*record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	slices.Sort(paths)
	out := make(map[string][]*record)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	return out, nil
}

// compare prints one row per workload and metric: each side's median
// and quartiles, the ratio of the medians (B/A), and a verdict on B
// against A, under the bound for end-to-end metrics.
func compare(w io.Writer, benchJSON string, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: compare <dirA> <dirB>")
	}
	bench, err := loadBenchmark(benchJSON)
	if err != nil {
		return err
	}
	a, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	b, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A\tverdict\n")
	for _, wl := range slices.Sorted(maps.Keys(a)) {
		ra, rb := a[wl], b[wl]
		if len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t(n=%d)\t(n=0)\t-\tnot in B\n", wl, len(ra))
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := values(ra, m.Name, false), values(rb, m.Name, false)
			row(tw, wl, m.Name, va, vb, verdict(va, vb, m.Better == "lower", m.Bound))
		}
		for _, m := range bench.PerLayer {
			va, vb := values(ra, m.Name, true), values(rb, m.Name, true)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			// Per-layer metrics have no bound: only a gain is judged.
			v := verdict(va, vb, m.Better == "lower", math.Inf(1))
			if v == "no regression" {
				v = "-"
			}
			row(tw, wl, m.Name, va, vb, v)
		}
	}
	return tw.Flush()
}

// values collects one metric from each record. A per-layer metric is
// read from an untraced record's extras, where the service timings are.
func values(recs []*record, name string, perLayer bool) []float64 {
	var out []float64
	for _, r := range recs {
		src := r.EndToEnd
		if perLayer {
			src = r.PerLayer
			if !r.Provenance.Trace {
				src = r.Extra
			}
		}
		if m, ok := src[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func row(w io.Writer, workload, name string, a, b []float64, verdict string) {
	qa, qb := quartiles(a), quartiles(b)
	r := "-"
	if qa[1] != 0 {
		r = fmt.Sprintf("%.3f", qb[1]/qa[1])
	}
	fmt.Fprintf(w, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\n",
		workload, name, qa[1], qa[0], qa[2], len(a), qb[1], qb[0], qb[2], len(b), r, verdict)
}

func quartiles(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{math.NaN(), math.NaN(), math.NaN()}
	}
	return quantiles(v, 4)
}

// minPairs is the fewest runs per side a verdict rests on.
const minPairs = 10

// verdict judges B against A for one metric, by the rules of the
// benchmark's README:
//   - unresolved (n<10) when either side has fewer than ten runs;
//   - unresolved when either side's spread (quartile distance over
//     median) exceeds the bound, unless every B run beats every A run;
//   - worse beyond bound when B's median is worse than A's by more than
//     the bound;
//   - better when B's median beats A's by more than A's quartile
//     distance and B wins at least nine pairs in ten (runs paired in
//     file order, ties counting for neither);
//   - no regression otherwise.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if min(len(a), len(b)) < minPairs {
		return "unresolved (n<10)"
	}
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	qa, qb := quantiles(a, 4), quantiles(b, 4)
	spreadA := (qa[2] - qa[0]) / math.Abs(qa[1])
	spreadB := (qb[2] - qb[0]) / math.Abs(qb[1])
	wins, pairs := 0, min(len(a), len(b))
	for i := range pairs {
		if better(b[i], a[i]) {
			wins++
		}
	}
	gain := better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0] && 10*wins >= 9*pairs
	if spreadA > bound || spreadB > bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				allBetter = allBetter && better(x, y)
			}
		}
		switch {
		case !allBetter:
			return "unresolved"
		case gain:
			return "better"
		}
		return "no regression"
	}
	switch {
	case better(qa[1]*(1+sign(lowerBetter)*bound), qb[1]):
		return "worse beyond bound"
	case gain:
		return "better"
	}
	return "no regression"
}

// sign turns the bound into the worsening direction: up for metrics
// where lower is better, down otherwise.
func sign(lowerBetter bool) float64 {
	if lowerBetter {
		return 1
	}
	return -1
}
