// Command pipebench is the repository's benchmark: it runs the salsad
// pipeline (agents → optional relays → root, over loopback HTTP) end to
// end and reports what a user of the cluster sees, or, with -trace 1, what
// each layer costs.
//
// Usage:
//
//	bash pipebench/run.sh -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-json report.jsonl] [-spans spans.json]
//	bash pipebench/run.sh -compare old.jsonl new.jsonl
//
// run.sh builds the command from the checkout's sources; `go run .` from
// this directory works as well. Workloads and metrics are listed in
// BENCHMARK.json at the repository root; the workloads' sizes are
// constants in workload.go, so the seed is the only input.
//
// The last line of standard output is one JSON object: correctness,
// operations attempted and failed, and the metrics. The command exits
// non-zero when the root's state differs from a sequential reference fed
// the same items.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(2)
	}
}

// run executes one invocation and reports whether every output was
// correct.
func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Uint64("seed", 1, "seed the workload's traces are drawn from")
		seconds = fs.Float64("seconds", 30, "length of the timed run")
		trace   = fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		jsonOut = fs.String("json", "", "append each run's salsabench-perf/v2 report to this JSON-lines file")
		spans   = fs.String("spans", "", "with -trace 1: write the spans here (default: a file in the temp dir)")
		compare = fs.Bool("compare", false, "compare two report files: -compare old.jsonl new.jsonl")
		bench   = fs.String("bench", "BENCHMARK.json", "with -compare: the benchmark definition holding bounds")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		return false, errors.New("invalid arguments")
	}
	if *compare {
		if fs.NArg() != 2 {
			return false, errors.New("-compare needs two report files")
		}
		worse, err := runCompare(fs.Arg(0), fs.Arg(1), *bench, out)
		return err == nil && !worse, err
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}

	fmt.Fprintf(out, "# pipebench seed=%d seconds=%g trace=%d cpus=%d gomaxprocs=%d %s %s/%s\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range selected {
		spansPath := *spans
		if *trace == 1 && spansPath == "" {
			spansPath = filepath.Join(os.TempDir(), fmt.Sprintf("pipebench-spans-%s-%d.json", w.name, *seed))
		}
		if len(selected) > 1 && *spans != "" {
			spansPath = strings.TrimSuffix(*spans, ".json") + "-" + w.name + ".json"
		}
		res, err := runWorkload(w, *seed, *seconds, *trace == 1, spansPath)
		if err != nil {
			return false, err
		}
		printResult(out, res, *trace == 1, spansPath)
		if *jsonOut != "" {
			if err := appendReport(*jsonOut, newReport(w, *seed, *seconds, *trace == 1, res)); err != nil {
				return false, err
			}
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for _, m := range res.Metrics {
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "/" + m.Name
			}
			final.Metrics[key] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(out, string(line))
	return final.Correct, nil
}

func printResult(out io.Writer, res *result, trace bool, spansPath string) {
	if !res.Correct {
		fmt.Fprintf(out, "%s: WRONG OUTPUT: %s\n", res.Workload, res.Problem)
		return
	}
	fmt.Fprintf(out, "%s: correct, %d operations, %d failed\n", res.Workload, res.Attempted, res.Failed)
	for _, m := range res.Metrics {
		fmt.Fprintf(out, "%-12s %-34s %16.6g %-8s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	if trace {
		fmt.Fprintf(out, "%s: tracing overhead %.2f%% of untraced items/s; spans in %s\n",
			res.Workload, res.OverheadPct, spansPath)
	}
}

// report is one run in the salsabench-perf/v2 schema.
type report struct {
	Schema    string         `json:"schema"`
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Traced    bool           `json:"traced"`
	Host      host           `json:"host"`
	Constants map[string]int `json:"constants"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	// Metrics are the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one.
	Metrics []metric `json:"metrics"`
	// TraceOverheadPct is the traced run's slowdown of items/s while
	// spans were recorded.
	TraceOverheadPct *float64 `json:"trace_overhead_pct,omitempty"`
}

// host states where a report was measured. Nothing in a report speaks to
// multi-core scaling.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func newReport(w workload, seed uint64, seconds float64, traced bool, res *result) report {
	r := report{
		Schema: "salsabench-perf/v2", Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Host: host{
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		},
		Constants: map[string]int{
			"agents": w.agents, "relays": w.relays, "frame_items": w.frameItems, "prefill": w.prefill,
			"trace_len": w.traceLen, "sketch_width": sketchWidth, "monitor_width": monitorWidth,
			"monitor_k": monitorK, "setup_repeats": setupRepeats, "persist_reps": persistReps,
			"query_items": queryItems, "writer_share_pct": int(writerShare * 100),
		},
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	}
	if !math.IsNaN(res.OverheadPct) {
		r.TraceOverheadPct = &res.OverheadPct
	}
	return r
}

// appendReport adds r as one line to the JSON-lines file at path.
func appendReport(path string, r report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
