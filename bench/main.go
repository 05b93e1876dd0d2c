// Command bench is the repository benchmark. One run measures one
// workload of the tangled-logic detection service end to end: it
// generates the workload's netlists from a seed, wires the durable store,
// the job manager and the HTTP server in-process on a loopback port,
// drives them from client goroutines for a fixed window, checks every
// result, and prints the metrics.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--trace-out <file>]
//	bash bench/run.sh compare <dirA> <dirB>
//
// Each metric is printed as "name value unit", then one JSON line
// {"correct", "attempted", "failed", "metrics"} closes the output: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1.
// Lines starting with "#" describe the run. The exit code is 1 when a
// check fails. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workDir holds data directories and traces, relative to the directory
// the benchmark runs from.
const workDir = ".bench_build"

// runTimeout stops a run that is stuck, well before the three minutes
// a run may take.
const runTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, "BENCHMARK.json", os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "input seed; a seed always generates the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", "", "also write the full result record as JSON to this file")
	traceOut := fs.String("trace-out", "", "file for a traced run's spans (default "+workDir+"/traces/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*workload)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	rec, err := run(ctx, runConfig{
		spec:    s,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workDir: workDir,
	})
	if err == nil && rec.Provenance.Trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", s.Name, *seed))
		}
		err = writeTrace(path, rec.Layers, rec.spans)
	}
	if err == nil && *out != "" {
		err = writeJSON(*out, rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := rec.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// print writes the run's description, its metrics one per line, and
// the closing JSON line.
func (rec *record) print(w io.Writer) error {
	p := rec.Provenance
	fmt.Fprintf(w, "# workload %s seed %d trace %t window_s %g measured_s %.3f ops %d setups %d tail_pct %d\n",
		rec.Workload, p.Seed, p.Trace, p.WindowS, p.MeasuredS, rec.Attempted, p.Setups, p.TailPct)
	fmt.Fprintf(w, "# provenance nproc %d gomaxprocs %d go %s git_rev %s start %s\n",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.GitRev, p.Start)
	for _, in := range rec.Inputs {
		fmt.Fprintf(w, "# input cells %d nets %d pins %d planted_blocks %d wide_pin_share %.4f\n",
			in.Cells, in.Nets, in.Pins, in.Blocks, in.WidePinShare)
	}
	for _, k := range slices.Sorted(maps.Keys(rec.OpsByKind)) {
		fmt.Fprintf(w, "# ops %s %d\n", k, rec.OpsByKind[k])
	}
	for _, k := range slices.Sorted(maps.Keys(rec.Extra)) {
		fmt.Fprintf(w, "# extra %s %s %s\n", k, num(rec.Extra[k].Value), rec.Extra[k].Unit)
	}
	for _, l := range rec.Layers {
		fmt.Fprintf(w, "# layer %-9s count %6d busy_ms %11.3f p50_ms %9.3f self_ms %11.3f\n",
			l.Layer, l.Count, l.BusyMS, l.P50MS, l.SelfMS)
	}
	for _, pr := range rec.Problems {
		fmt.Fprintf(w, "# problem %s\n", pr)
	}
	defs, metrics := endToEndMetrics, rec.EndToEnd
	if p.Trace {
		// The traced run's own end-to-end values, for the tracing overhead.
		for _, d := range endToEndMetrics {
			fmt.Fprintf(w, "# traced %s %s %s\n", d.name, num(rec.EndToEnd[d.name].Value), d.unit)
		}
		defs, metrics = perLayerMetrics, rec.PerLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s\n", d.name, num(metrics[d.name].Value), d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// num formats a value with all its digits.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitRev is the commit of the checkout the benchmark runs in, or
// "unknown" outside a git work tree. git is kept from searching the
// directories above the checkout.
func gitRev() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
