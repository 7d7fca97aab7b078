// Multi-core ingestion throughput mode (-throughput): streams a Zipf trace
// into the concurrency layers from -procs goroutines and reports
// million-updates-per-second for every backend and ingestion path — per-item
// locking, whole batches (-batch items at a time), and per-goroutine Writer
// buffers. Backends are declared as spec expressions ("sharded(N,cms)",
// "epoch(N,cms)") and built through salsa.Build, so this mode exercises the
// public composable API end to end; the shard/writer count follows -procs
// (rounded up to a power of two for sharding).
//
// The -sweep mode runs the concurrency-layer comparison the epoch design
// answers to: lock-free epoch ingestion vs hash-routed Sharded vs a single
// mutex, across a GOMAXPROCS ladder, plus a single-core parity section
// pinning the epoch compatibility path (direct Update/Query through the
// view lock) against the plain sketch. With -json the curves land in a
// BENCH_*.json with the -perf schema.
package main

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"salsa"
	"salsa/internal/stream"
)

type throughputConfig struct {
	n     int
	procs int
	batch int
	seed  uint64
}

var ingestPaths = []string{"item", "batch", "writer"}

func runThroughput(cfg throughputConfig, out io.Writer) {
	if cfg.procs <= 0 {
		cfg.procs = runtime.GOMAXPROCS(0)
	} else {
		runtime.GOMAXPROCS(cfg.procs)
	}
	// One shard per ingesting goroutine; ShardedBy rounds up to a power of
	// two, mirrored here so the header reports the real configuration.
	shards := 1
	for shards < cfg.procs {
		shards *= 2
	}
	if cfg.batch <= 0 {
		cfg.batch = 4096
	}
	data := stream.Zipf(cfg.n, cfg.n/16, 1.0, cfg.seed)
	opt := salsa.Options{Width: 1 << 14, Seed: cfg.seed}

	backends := []struct {
		name string
		opt  salsa.Options
		expr string
	}{
		{"countmin", opt, fmt.Sprintf("sharded(%d,cms)", shards)},
		{"countmin-baseline", salsa.Options{Width: 1 << 14, Mode: salsa.ModeBaseline, Seed: cfg.seed}, fmt.Sprintf("sharded(%d,cms)", shards)},
		{"conservative", opt, fmt.Sprintf("sharded(%d,cus)", shards)},
		{"countsketch", opt, fmt.Sprintf("sharded(%d,cs)", shards)},
		{"countmin-mutex", opt, "sharded(1,cms)"},
		{"countmin-epoch", salsa.Options{Width: 1 << 14, Merge: salsa.MergeSum, Seed: cfg.seed}, fmt.Sprintf("epoch(%d,cms)", cfg.procs)},
	}

	fmt.Fprintln(out, "# concurrent ingestion throughput (concurrency layers)")
	fmt.Fprintf(out, "# n=%d, procs=%d, shards=%d, batch=%d, width=%d\n",
		cfg.n, cfg.procs, shards, cfg.batch, opt.Width)
	fmt.Fprintln(out, "backend,path,mops")
	for _, b := range backends {
		for _, path := range ingestPaths {
			spec, err := salsa.ParseSpec(b.expr, b.opt)
			if err != nil {
				panic(err) // static exprs above; cannot fail
			}
			elapsed := ingestTopology(salsa.MustBuild(spec), path, cfg, data)
			mops := float64(cfg.n) / elapsed.Seconds() / 1e6
			fmt.Fprintf(out, "%s,%s,%.2f\n", b.name, path, mops)
		}
	}
}

// epochLayer is the ingestion surface every EpochShardedBy product shares
// through its embedded *salsa.Epoch.
type epochLayer interface {
	NewWriter(batch int) *salsa.EpochWriter
	Advance()
	AutoAdvance(interval time.Duration) (stop func())
}

// shardedLayer is the ingestion surface every ShardedBy product over
// shard type S shares through its embedded *salsa.Sharded[S]. Writer is
// generic in S, so the layer is matched once per shard type the
// backends above build.
type shardedLayer[S salsa.Sketch] interface {
	Increment(item uint64)
	IncrementBatch(items []uint64)
	NewWriter(batch int) *salsa.Writer[S]
}

// ingestTopology streams data through the chosen path of the concurrency
// layer Build returned.
func ingestTopology(s salsa.Sketch, path string, cfg throughputConfig, data []uint64) time.Duration {
	switch x := s.(type) {
	case epochLayer:
		return ingestEpoch(x, path, cfg, data)
	case shardedLayer[*salsa.CountMin]:
		return ingest(x, path, cfg, data)
	case shardedLayer[*salsa.CountSketch]:
		return ingest(x, path, cfg, data)
	}
	panic(fmt.Sprintf("throughput: unshardable topology %T", s))
}

// ingestEpoch streams data through per-goroutine EpochWriter handles with
// a live background merger — the honest lock-free measurement: the clock
// covers ingestion, writer teardown, and the final drain that makes every
// item visible to queries.
func ingestEpoch(e epochLayer, path string, cfg throughputConfig, data []uint64) time.Duration {
	stop := e.AutoAdvance(time.Millisecond)
	defer stop()
	procs := cfg.procs
	chunk := (len(data) + procs - 1) / procs
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		lo := g * chunk
		hi := min(lo+chunk, len(data))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			w := e.NewWriter(cfg.batch)
			switch path {
			case "batch":
				for off := 0; off < len(part); off += cfg.batch {
					w.UpdateBatch(part[off:min(off+cfg.batch, len(part))], 1)
				}
			default: // "item" and "writer" are the same lock-free path
				for _, x := range part {
					w.Increment(x)
				}
			}
			w.Close()
		}(data[lo:hi])
	}
	wg.Wait()
	e.Advance() // fold the tail: queries now see the whole stream
	return time.Since(start)
}

// ingest streams data into s from cfg.procs goroutines over the chosen path
// and returns the wall-clock time for the whole stream.
func ingest[S salsa.Sketch](s shardedLayer[S], path string, cfg throughputConfig, data []uint64) time.Duration {
	procs := cfg.procs
	chunk := (len(data) + procs - 1) / procs
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		lo := g * chunk
		hi := min(lo+chunk, len(data))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			switch path {
			case "item":
				for _, x := range part {
					s.Increment(x)
				}
			case "batch":
				for off := 0; off < len(part); off += cfg.batch {
					s.IncrementBatch(part[off:min(off+cfg.batch, len(part))])
				}
			case "writer":
				w := s.NewWriter(cfg.batch)
				for _, x := range part {
					w.Increment(x)
				}
				w.Flush()
			}
		}(data[lo:hi])
	}
	wg.Wait()
	return time.Since(start)
}

// sweepLadder is the GOMAXPROCS ladder of -sweep; on machines with fewer
// cores the upper rungs timeshare, which is the honest picture of
// oversubscription.
var sweepLadder = []int{1, 2, 4, 8, 16}

// runThroughputSweep produces the concurrency-layer curves the epoch
// design answers to: epoch (lock-free private sketches, background
// merger) vs sharded (hash-routed per-shard mutexes) vs mutex (a single
// lock), on batch and writer ingestion paths across the GOMAXPROCS
// ladder, plus a single-core parity section pinning the epoch
// compatibility path to the plain sketch. Results go to out as CSV and,
// with -json, into a BENCH_*.json report (schema salsabench-perf/v1,
// point names "ingest/<layer>/<path>/p<procs>" and "parity/...").
func runThroughputSweep(cfg throughputConfig, label, jsonPath string, out io.Writer) error {
	if cfg.batch <= 0 {
		cfg.batch = 4096
	}
	data := stream.Zipf(cfg.n, cfg.n/16, 1.0, cfg.seed)
	// Best-of-5: oversubscribed rungs of the ladder timeshare on small
	// boxes, and scheduler placement dominates run-to-run variance there.
	const trials = 5

	fmt.Fprintln(out, "# concurrency-layer throughput sweep")
	fmt.Fprintf(out, "# n=%d, batch=%d, trials=%d (best), %s %s/%s cpus=%d\n",
		cfg.n, cfg.batch, trials, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	fmt.Fprintln(out, "layer,path,procs,mops")

	report := perfReport{
		Schema:    "salsabench-perf/v1",
		Label:     label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		N:         cfg.n,
		Batch:     cfg.batch,
	}
	record := func(name string, d time.Duration, ops int) {
		ns := float64(d.Nanoseconds()) / float64(ops)
		report.Points = append(report.Points, perfPoint{
			Name:        name,
			NsPerOp:     ns,
			ItemsPerSec: float64(ops) / d.Seconds(),
		})
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range sweepLadder {
		runtime.GOMAXPROCS(procs)
		pc := cfg
		pc.procs = procs
		shards := 1
		for shards < procs {
			shards *= 2
		}
		layers := []struct {
			layer string
			expr  string
			opt   salsa.Options
		}{
			{"epoch", fmt.Sprintf("epoch(%d,cms)", procs), salsa.Options{Width: 1 << 14, Merge: salsa.MergeSum, Seed: cfg.seed}},
			{"sharded", fmt.Sprintf("sharded(%d,cms)", shards), salsa.Options{Width: 1 << 14, Seed: cfg.seed}},
			{"mutex", "sharded(1,cms)", salsa.Options{Width: 1 << 14, Seed: cfg.seed}},
		}
		for _, l := range layers {
			for _, path := range ingestPaths {
				best := time.Duration(1<<63 - 1)
				for t := 0; t < trials; t++ {
					spec, err := salsa.ParseSpec(l.expr, l.opt)
					if err != nil {
						return err
					}
					if d := ingestTopology(salsa.MustBuild(spec), path, pc, data); d < best {
						best = d
					}
				}
				mops := float64(cfg.n) / best.Seconds() / 1e6
				fmt.Fprintf(out, "%s,%s,%d,%.2f\n", l.layer, path, procs, mops)
				record(fmt.Sprintf("ingest/%s/%s/p%d", l.layer, path, procs), best, cfg.n)
			}
		}
	}

	// Single-core parity: adopting the epoch topology in place of Sharded
	// must cost nothing before concurrency exists. The compatibility path
	// (direct Update/Query through the view lock, no writers, no merger)
	// is measured against the sharded layer it replaces (hash route plus
	// shard mutex) and against the plain sketch as the floor.
	runtime.GOMAXPROCS(1)
	opt := salsa.Options{Width: 1 << 14, Merge: salsa.MergeSum, Seed: cfg.seed}
	plain := salsa.MustBuild(salsa.CountMinOf(opt)).(*salsa.CountMin)
	sharded := salsa.MustBuild(salsa.ShardedBy(salsa.CountMinOf(opt), 1)).(*salsa.ShardedCountMin)
	epoch := salsa.MustBuild(salsa.EpochShardedBy(salsa.CountMinOf(opt), 1)).(*salsa.EpochCountMin)
	parity := []struct {
		name string
		fn   func()
	}{
		{"parity/plain/update", func() {
			for _, x := range data {
				plain.Increment(x)
			}
		}},
		{"parity/sharded/update", func() {
			for _, x := range data {
				sharded.Increment(x)
			}
		}},
		{"parity/epoch/update", func() {
			for _, x := range data {
				epoch.Increment(x)
			}
		}},
		{"parity/plain/query", func() {
			for _, x := range data {
				_ = plain.Query(x)
			}
		}},
		{"parity/sharded/query", func() {
			for _, x := range data {
				_ = sharded.Query(x)
			}
		}},
		{"parity/epoch/query", func() {
			for _, x := range data {
				_ = epoch.Query(x)
			}
		}},
	}
	fmt.Fprintln(out, "point,procs,mops")
	for _, p := range parity {
		p.fn() // warm
		best := timePerf(trials, p.fn)
		fmt.Fprintf(out, "%s,1,%.2f\n", p.name, float64(cfg.n)/best.Seconds()/1e6)
		record(p.name, best, cfg.n)
	}

	return writePerfReport(perfConfig{json: jsonPath}, report, out)
}
