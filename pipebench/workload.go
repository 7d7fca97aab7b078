package main

import (
	"time"

	"salsa/internal/stream"
)

// Every node runs cmd/salsad's default topology: CMS-SALSA, 2^14 counters
// per row, sum merge, hash seed 1. Every agent also feeds a small
// heavy-hitter monitor that supplies its push candidates, as
// `salsad -mode agent` does.
const (
	sketchWidth  = 1 << 14
	hashSeed     = 1
	monitorWidth = 1 << 10
	monitorK     = 64

	// setupRepeats is how many times a run builds its cluster; setup_s is
	// the median, and the last cluster is the one measured.
	setupRepeats = 5
	// persistReps is how many restores and saves the persist probe times.
	persistReps = 11
	// readSlot is the mixed phase's reader schedule step: a query every
	// second slot (10/s) and a top every fourth (5/s), whatever the
	// workload.
	readSlot = 50 * time.Millisecond
	// queryItems is how many items one /v1/query asks for.
	queryItems = 16
	// writerShare is the part of the timed run spent with the writer
	// alone, where the end-to-end metrics are taken; the rest runs it
	// beside the open-loop reader, for the per-layer metrics.
	writerShare = 0.6
)

// workload is one traffic mix. Sizes are constants; the seed is the only
// input, and it only picks the traces.
type workload struct {
	name string
	// agents edge agents push either to the root (relays == 0) or, split
	// evenly, to that many relays that push to the root.
	agents int
	relays int
	// durable gives the root and every relay a data directory.
	durable bool
	// frameItems is how many items an agent ingests before each PushOnce.
	frameItems int
	// prefill is how many items each agent ingests and pushes during
	// set-up, before the timed phase.
	prefill int
	// traceLen is the length of each agent's cyclic source.
	traceLen int
	// traces returns one source per agent.
	traces func(seed uint64, agents, n int) [][]uint64
}

var workloads = []workload{
	// One agent sends 100k-item frames straight to the root: the sketch
	// hot path and the agent's delta cut dominate, the root's read path
	// idles.
	{
		name:   "edge-ingest",
		agents: 1, frameItems: 100_000, prefill: 100_000, traceLen: 1 << 22,
		traces: perAgent(stream.NY18),
	},
	// 32 agents send 1024-item frames while reads fold their 32
	// contributions at the root: writes and reads meet on the aggregator
	// mutex.
	{
		name:   "fanin-mixed",
		agents: 32, frameItems: 1024, prefill: 65_536, traceLen: 1 << 18,
		traces: perAgent(stream.Univ2),
	},
	// 32 agents feed 2 durable relays feeding a durable root: relay cuts,
	// fsync before send, and candidate pools past the 512-item push cap.
	{
		name:   "relay-tree",
		agents: 32, relays: 2, durable: true, frameItems: 8192, prefill: 8192, traceLen: 1 << 17,
		traces: siteMix,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// perAgent gives every agent its own trace of the dataset, so agents share
// no items.
func perAgent(ds stream.Dataset) func(seed uint64, agents, n int) [][]uint64 {
	return func(seed uint64, agents, n int) [][]uint64 {
		out := make([][]uint64, agents)
		for i := range out {
			out[i] = ds.Generate(n, seed*1000+uint64(i))
		}
		return out
	}
}

// siteMix interleaves, item by item, a cluster-wide CH16 trace (α = 1.0,
// items shared by all agents) with a site-local Zipf over ids only that
// agent sees.
func siteMix(seed uint64, agents, n int) [][]uint64 {
	half := n / 2
	global := stream.CH16.Generate(agents*half, seed)
	out := make([][]uint64, agents)
	for i := range out {
		local := stream.Zipf(half, 1<<14, 1.0, seed*1000+uint64(i)+1)
		tr := make([]uint64, 0, 2*half)
		for j := 0; j < half; j++ {
			tr = append(tr, global[i*half+j], local[j])
		}
		out[i] = tr
	}
	return out
}
