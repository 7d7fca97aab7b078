// Composed-topology mode (-topology): builds an arbitrary sketch topology
// from a spec expression — e.g. "sharded(8,windowed(4,65536,cms))" — via
// salsa.ParseSpec + salsa.Build, streams a Zipf trace through it, and
// reports ingestion rate, rotation cost (when the topology windows), and
// point-query rate. This replaces the old ad-hoc -window/-shards flag
// plumbing: every deployment shape the spec algebra can express is
// benchmarkable with one flag, through the same public API applications
// use.
package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"salsa"
	"salsa/internal/stream"
)

type topologyConfig struct {
	expr  string
	n     int
	procs int
	batch int
	seed  uint64
}

// queryFunc returns the point-query surface of any built topology. Point
// queries are matched by estimate type, so each concurrency layer's
// typed products fall under the same cases as the sketches they wrap.
func queryFunc(s salsa.Sketch) (func(uint64), error) {
	switch x := s.(type) {
	case interface{ Query(uint64) uint64 }:
		return func(i uint64) { _ = x.Query(i) }, nil
	case interface{ Query(uint64) int64 }:
		return func(i uint64) { _ = x.Query(i) }, nil
	case interface{ Query(uint64) float64 }:
		return func(i uint64) { _ = x.Query(i) }, nil
	case *salsa.Monitor:
		return func(i uint64) { _ = x.Sketch().Query(i) }, nil
	case *salsa.TopK:
		return func(i uint64) { _ = x.Sketch().Query(i) }, nil
	case *salsa.UnivMon:
		// No per-item query; the closest point-query analogue is the
		// top-level heavy-hitter scan, amortized here per probe.
		return func(i uint64) { _ = x.Volume() }, nil
	}
	return nil, fmt.Errorf("no query surface for %T", s)
}

// isSharded reports whether the built topology tolerates concurrent
// ingestion (decided by the concrete type Build returned, not by the
// spec rendering): every ShardedBy product reports its Shards, and every
// EpochShardedBy product hands out EpochWriters. Epoch types qualify
// through their direct compatibility path — serialized through the view
// lock, safe from any goroutine; use -sweep for the lock-free writer
// path.
func isSharded(s salsa.Sketch) bool {
	switch s.(type) {
	case interface{ Shards() int }, interface{ NewWriter(int) *salsa.EpochWriter }:
		return true
	}
	return false
}

func runTopology(cfg topologyConfig, out io.Writer) error {
	if cfg.batch <= 0 {
		cfg.batch = 4096
	}
	if cfg.procs <= 0 {
		cfg.procs = 1
	}
	opt := salsa.Options{Width: 1 << 14, Seed: cfg.seed}
	spec, err := salsa.ParseSpec(cfg.expr, opt)
	if err != nil {
		return err
	}
	s, err := salsa.Build(spec)
	if err != nil {
		return err
	}
	data := stream.Zipf(cfg.n, cfg.n/16, 1.0, cfg.seed)
	queries := data[:min(1<<16, len(data))]

	// Only sharded topologies are safe for concurrent ingestion; others
	// stream from one goroutine regardless of -procs.
	procs := cfg.procs
	if !isSharded(s) {
		procs = 1
	}

	fmt.Fprintln(out, "# composed-topology benchmark (spec algebra end to end)")
	fmt.Fprintf(out, "# topology=%s, n=%d, procs=%d, batch=%d, width=%d\n",
		spec, cfg.n, procs, cfg.batch, opt.Width)
	fmt.Fprintln(out, "metric,value")

	start := time.Now()
	if procs > 1 {
		chunk := (len(data) + procs - 1) / procs
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
				for off := 0; off < len(part); off += cfg.batch {
					s.UpdateBatch(part[off:min(off+cfg.batch, len(part))], 1)
				}
			}(data[lo:hi])
		}
		wg.Wait()
	} else {
		for off := 0; off < len(data); off += cfg.batch {
			s.UpdateBatch(data[off:min(off+cfg.batch, len(data))], 1)
		}
	}
	ingest := time.Since(start)
	fmt.Fprintf(out, "ingest_mops,%.2f\n", float64(len(data))/ingest.Seconds()/1e6)

	if tk, ok := s.(interface{ Tick() }); ok {
		const ticks = 16
		start = time.Now()
		for i := 0; i < ticks; i++ {
			tk.Tick()
		}
		fmt.Fprintf(out, "rotation_us,%.1f\n",
			float64(time.Since(start).Nanoseconds())/ticks/1e3)
		// Re-warm so queries hit a realistic, partially-filled window.
		s.UpdateBatch(data[:min(cfg.n/4, len(data))], 1)
	}

	q, err := queryFunc(s)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, x := range queries {
		q(x)
	}
	qElapsed := time.Since(start)
	fmt.Fprintf(out, "query_mops,%.2f\n", float64(len(queries))/qElapsed.Seconds()/1e6)
	fmt.Fprintf(out, "memory_kib,%d\n", s.MemoryBits()/8/1024)

	// The envelope is part of the operational story (distributed merges):
	// report the serialized size and prove the round trip on the spot.
	blob, err := salsa.Marshal(s)
	if err != nil {
		return err
	}
	if _, err := salsa.Unmarshal(blob); err != nil {
		return fmt.Errorf("round trip failed: %w", err)
	}
	fmt.Fprintf(out, "envelope_kib,%d\n", len(blob)/1024)
	return nil
}
