package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tanglefind"
)

// tiny shrinks every workload to a few thousand cells.
const tiny = 0.1

// scaled shrinks a workload by f.
func (s spec) scaled(f float64) spec {
	s.Cells = max(int(float64(s.Cells)*f), 400)
	s.BlockSize = max(int(float64(s.BlockSize)*f), 40)
	s.OrderLen = max(int(float64(s.OrderLen)*f), 2*s.BlockSize)
	return s
}

// TestWorkloadsPrintBenchmarkMetrics runs every workload at a tiny size
// and checks that its printed metrics are exactly those BENCHMARK.json
// names, untraced and traced, closed by the JSON summary line.
func TestWorkloadsPrintBenchmarkMetrics(t *testing.T) {
	bench, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bench.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			rec, err := run(context.Background(), runConfig{
				spec: s.scaled(tiny), seed: 1, window: 100 * time.Millisecond, trace: true, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Attempted == 0 {
				t.Fatalf("run not correct (%d ops attempted): %v", rec.Attempted, rec.Problems)
			}
			for _, traced := range []bool{false, true} {
				want := e2e
				if traced {
					want = layers
				}
				cp := *rec
				cp.Provenance.Trace = traced
				var out bytes.Buffer
				if err := cp.print(&out); err != nil {
					t.Fatal(err)
				}
				got, summary := parseOutput(t, out.String())
				if !slices.Equal(got, want) {
					t.Errorf("traced=%t: printed metrics\n%v\nwant BENCHMARK.json's\n%v", traced, got, want)
				}
				if len(summary.Metrics) != len(want) || !summary.Correct || summary.Attempted != rec.Attempted {
					t.Errorf("traced=%t: summary line %+v", traced, summary)
				}
				for _, m := range want {
					if summary.Metrics[m.name].Unit != m.unit {
						t.Errorf("traced=%t: summary lacks %s in %s", traced, m.name, m.unit)
					}
				}
			}
		})
	}
}

type summaryLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parseOutput splits a run's output into its "name value unit" lines
// and the closing JSON line.
func parseOutput(t *testing.T, out string) ([]metricDef, summaryLine) {
	t.Helper()
	var defs []metricDef
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		last = line
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "{") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("malformed metric line %q", line)
		}
		defs = append(defs, metricDef{f[0], f[2]})
	}
	var s summaryLine
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return defs, s
}

// TestDroppedMemberFailsCheck corrupts a served detection by dropping
// one group member and expects the correctness check to catch it.
func TestDroppedMemberFailsCheck(t *testing.T) {
	ctx := context.Background()
	r := &runner{s: specs[0].scaled(tiny), seed: 1}
	if err := r.setUp(ctx, filepath.Join(t.TempDir(), "data")); err != nil {
		t.Fatal(err)
	}
	defer r.env.stk.close()
	ops := []op{r.detectOp(ctx, len(r.env.ins))} // a new revision of netlist 0
	if ops[0].err != nil {
		t.Fatal(ops[0].err)
	}
	f, err := tanglefind.NewFinder(r.env.ins[0].nl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Find(ctx, r.s.options(r.seed))
	if err != nil {
		t.Fatal(err)
	}
	refs := [][]group{groupsFromEngine(res.GTLs)}
	if p := checkDetections(refs, ops); len(p) != 0 {
		t.Fatalf("intact result flagged: %v", p)
	}

	bad := *ops[0].job.status.Result
	bad.GTLs = slices.Clone(bad.GTLs)
	bad.GTLs[0].Members = bad.GTLs[0].Members[1:]
	ops[0].job.status.Result = &bad
	if p := checkDetections(refs, ops); len(p) == 0 {
		t.Fatal("a dropped group member passed the check")
	}
}

// TestVerdict checks compare's verdicts on a lower-is-better metric with
// a 10% bound.
func TestVerdict(t *testing.T) {
	steady := func(base float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base * (1 + 0.002*float64(i%3))
		}
		return out
	}
	wide := []float64{100, 130, 80, 120, 90, 125, 85, 110, 95, 105}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"few runs", steady(100, 5), steady(50, 5), "unresolved (n<10)"},
		{"same", steady(100, 10), steady(100.1, 10), "no regression"},
		{"faster", steady(100, 10), steady(80, 10), "better"},
		{"slower within bound", steady(100, 10), steady(105, 10), "no regression"},
		{"slower beyond bound", steady(100, 10), steady(115, 10), "worse beyond bound"},
		{"wide spread", wide, steady(95, 10), "unresolved"},
		{"wide spread, every run faster", wide, steady(60, 10), "better"},
		{"wide spread, every run faster by less than the spread", wide, steady(75, 10), "no regression"},
	} {
		if got := verdict(tc.a, tc.b, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuantilesMatchPython pins the quartile method compare uses to
// Python's statistics.quantiles(data, n=4).
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		data []float64
		want []float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{105, 129, 87, 86, 111, 111, 89, 81, 108, 92}, []float64{86.75, 98.5, 111}},
		{[]float64{3, 1}, []float64{0.5, 2, 3.5}},
	} {
		if got := quantiles(tc.data, 4); !slices.Equal(got, tc.want) {
			t.Errorf("quantiles(%v) = %v, want %v", tc.data, got, tc.want)
		}
	}
}
