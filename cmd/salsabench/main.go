// Command salsabench regenerates the paper's evaluation figures
// (`salsabench -list` maps ids to figures) and measures the operational
// layers.
// Each figure run prints one CSV block per experiment: series, x, y-mean,
// and the 95% Student-t half-width over the trials.
//
// Usage:
//
//	salsabench -experiment fig8cd                # one figure
//	salsabench -all -n 1000000 -trials 5         # everything, paper-style
//	salsabench -list                             # what exists
//	salsabench -throughput -procs 8 -batch 4096  # multi-core ingestion rate
//	salsabench -sweep -json BENCH_pr7.json       # epoch vs sharded vs mutex curves
//	salsabench -topology 'windowed(8,65536,cms)' # any composed topology,
//	salsabench -topology 'sharded(8,windowed(4,65536,cms))' -procs 8
//	salsabench -perf -json BENCH_pr4.json        # hot-path items/s + JSON report
//	salsabench -perf -cpuprofile cpu.pprof       # profile any mode
//
// The -topology flag accepts any spec expression of the salsa package's
// composable topology algebra (see salsa.ParseSpec) and benchmarks it
// end to end through salsa.Build, including its universal-envelope
// serialization size.
//
// The paper runs 98M-update traces; -n scales the streams (and the harness
// scales sketch widths to match the paper's operating points). Shapes are
// the reproduction target, not absolute values.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"salsa/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "salsabench:", err)
		os.Exit(1)
	}
}

// run executes one salsabench invocation, writing results to out; main is
// only the exit-code shim so tests can drive the tool in-process.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("salsabench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment id to run (see -list)")
		all        = fs.Bool("all", false, "run every experiment")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		n          = fs.Int("n", 400_000, "stream length (paper: 98M)")
		trials     = fs.Int("trials", 3, "trials per data point (paper: 10)")
		seed       = fs.Uint64("seed", 42, "master seed")
		throughput = fs.Bool("throughput", false, "measure multi-core ingestion throughput of the concurrency layers")
		sweep      = fs.Bool("sweep", false, "concurrency-layer curves (epoch vs sharded vs mutex) across a GOMAXPROCS ladder")
		procs      = fs.Int("procs", 0, "ingesting goroutines for -throughput/-topology (0 = GOMAXPROCS)")
		batch      = fs.Int("batch", 4096, "batch / Writer buffer size for -throughput/-topology")
		topology   = fs.String("topology", "", "benchmark a composed topology spec, e.g. 'sharded(8,windowed(4,65536,cms))'")
		perf       = fs.Bool("perf", false, "measure single-item and batch hot-path throughput per backend")
		jsonOut    = fs.String("json", "", "with -perf: also write the results as a BENCH_*.json report to this path")
		label      = fs.String("label", "", "label recorded in the -json report (e.g. pr3)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this path")
		memprofile = fs.String("memprofile", "", "write a heap profile at exit to this path")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		// The FlagSet has already reported the problem on stderr.
		return errors.New("invalid arguments")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "salsabench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle steady-state live objects before the snapshot
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "salsabench: memprofile:", err)
			}
		}()
	}

	switch {
	case *perf:
		return runPerf(perfConfig{n: *n, batch: *batch, seed: *seed, json: *jsonOut, label: *label}, out)
	case *sweep:
		return runThroughputSweep(throughputConfig{n: *n, batch: *batch, seed: *seed}, *label, *jsonOut, out)
	case *throughput:
		runThroughput(throughputConfig{n: *n, procs: *procs, batch: *batch, seed: *seed}, out)
		return nil
	case *topology != "":
		return runTopology(topologyConfig{expr: *topology, n: *n, procs: *procs, batch: *batch, seed: *seed}, out)
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Fprintf(out, "%-9s %s\n", id, experiments.Title(id))
		}
		return nil
	}

	cfg := experiments.Config{N: *n, Trials: *trials, Seed: *seed}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *experiment != "":
		ids = []string{*experiment}
	default:
		fs.Usage()
		return fmt.Errorf("need -experiment <id>, -all, -list, -throughput, -sweep, -topology <spec>, or -perf")
	}

	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# %s: %s\n", res.ID, res.Title)
		fmt.Fprintf(out, "# x=%s, y=%s, n=%d, trials=%d, elapsed=%s\n",
			res.XLabel, res.YLabel, cfg.N, cfg.Trials, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(out, "series,x,y,ci95")
		for _, p := range res.Points {
			fmt.Fprintf(out, "%s,%g,%g,%g\n", p.Series, p.X, p.Y, p.CI)
		}
		fmt.Fprintln(out)
	}
	return nil
}
