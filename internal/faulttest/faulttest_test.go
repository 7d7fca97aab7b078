package faulttest

import (
	"bytes"
	"context"
	"sort"
	"testing"

	"salsa"
	"salsa/internal/salsad"
	"salsa/internal/stream"
)

// seeds exercised by every scenario. Each is logged with the failure so a
// red run replays exactly: `go test -run TestName ./internal/faulttest`.
var seeds = []int64{1, 42, 20210419} // 20210419: SALSA's ICDE publication date

func cmsFixedSpec() salsa.Spec {
	return salsa.CountMinOf(salsa.Options{
		Width: 1 << 10, Mode: salsa.ModeBaseline, Merge: salsa.MergeSum, Seed: 77,
	})
}

// cmsSalsaSpec is cmsFixedSpec with SALSA's self-adjusting counters.
func cmsSalsaSpec() salsa.Spec {
	return salsa.CountMinOf(salsa.Options{Width: 1 << 10, Merge: salsa.MergeSum, Seed: 77})
}

// backends the convergence scenarios run over. wantBytes marks the ones
// whose quiesced aggregator must be byte-identical to the no-fault
// sequential reference. Fixed counters add exactly, and a sum-merge SALSA
// union ends at the least layout that holds its sums whatever the merge
// grouping, so every backend here is held to byte identity. Conservative
// update is not multiset-determined: a backend using it would be held to
// exact value equivalence only.
var backends = []struct {
	name      string
	spec      salsa.Spec
	wantBytes bool
}{
	{"cms-fixed", cmsFixedSpec(), true},
	{"cs-fixed", salsa.CountSketchOf(salsa.Options{Width: 1 << 10, Mode: salsa.ModeBaseline, Seed: 77}), true},
	{"cms-salsa", cmsSalsaSpec(), true},
}

// forEachCMS runs body as one subtest per CountMin backend: the rejoin,
// durable and tree scenarios hold fixed and SALSA counters alike to byte
// identity.
func forEachCMS(t *testing.T, body func(t *testing.T, spec salsa.Spec)) {
	t.Run("cms-fixed", func(t *testing.T) { body(t, cmsFixedSpec()) })
	t.Run("cms-salsa", func(t *testing.T) { body(t, cmsSalsaSpec()) })
}

func traces(n, perAgent int, seed int64) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = stream.Zipf(perAgent, 1<<12, 1.1, uint64(seed)+uint64(i)*1000)
	}
	return out
}

// checkConverged asserts the quiesced aggregator matches the no-fault
// reference: byte-identically when wantBytes is set, and by exact per-item
// counts always.
func checkConverged(t *testing.T, c *Cluster, wantBytes bool) {
	t.Helper()
	got, err := c.Agg.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ReferenceBytes()
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes && !bytes.Equal(got, want) {
		t.Fatalf("quiesced aggregator (%d bytes) is not byte-identical to the no-fault reference (%d bytes)",
			len(got), len(want))
	}
	// Value equivalence against the reference sketch (estimate-exact: the
	// same multiset through the same seeded topology).
	ref, err := salsa.Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Agg.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	exact := c.ExactCounts()
	items := make([]uint64, 0, len(exact))
	for item := range exact {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		if got, want := querySketch(t, merged, item), querySketch(t, ref, item); got != want {
			t.Fatalf("item %d: aggregator estimate %d != reference %d", item, got, want)
		}
	}
}

func querySketch(t *testing.T, s salsa.Sketch, item uint64) int64 {
	t.Helper()
	switch v := s.(type) {
	case *salsa.CountMin:
		return int64(v.Query(item))
	case *salsa.CountSketch:
		return v.Query(item)
	default:
		t.Fatalf("unsupported %T", s)
		return 0
	}
}

// TestLossyNetworkConvergence runs a cluster through a network that
// drops, duplicates, delays/reorders, and loses acks — then quiesces and
// demands the no-fault answer.
func TestLossyNetworkConvergence(t *testing.T) {
	for _, b := range backends {
		for _, seed := range seeds {
			t.Run(b.name, func(t *testing.T) {
				t.Logf("seed=%d", seed)
				plan := Plan{Seed: seed, Drop: 0.15, Dup: 0.15, AckLoss: 0.15, Delay: 0.15}
				c, err := NewCluster(b.spec, b.spec, traces(4, 3000, seed), plan)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for round := 0; round < 20; round++ {
					for _, m := range c.Members {
						m.Feed(150)
					}
					c.Pump(ctx)
				}
				rounds, ok := c.Converge(ctx, 50)
				if !ok {
					t.Fatalf("seed=%d: cluster did not converge in 50 clean rounds", seed)
				}
				t.Logf("seed=%d: converged after %d clean rounds; transport=%+v", seed, rounds, c.Transport.Stats())
				st := c.Transport.Stats()
				if st.Dropped == 0 || st.Duplicated == 0 || st.AcksLost == 0 || st.Delayed == 0 {
					t.Fatalf("seed=%d: schedule failed to exercise every fault class: %+v", seed, st)
				}
				checkConverged(t, c, b.wantBytes)
			})
		}
	}
}

// TestPartitionCoalesce severs the link mid-run, keeps feeding, and pins
// the graceful-degradation contract: the frozen in-flight frame never
// changes during the outage (O(sketch) buffering, retries byte-identical)
// and the whole outage drains in at most two post-heal data frames.
func TestPartitionCoalesce(t *testing.T) {
	for _, seed := range seeds {
		t.Logf("seed=%d", seed)
		c, err := NewCluster(cmsFixedSpec(), cmsFixedSpec(), traces(3, 4000, seed), Plan{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for round := 0; round < 5; round++ {
			for _, m := range c.Members {
				m.Feed(200)
			}
			c.Pump(ctx)
		}
		if !c.Synced() {
			t.Fatalf("seed=%d: clean warm-up did not sync", seed)
		}

		c.Transport.Partition(true)
		// One push attempt freezes a frame; the rest of the outage piles
		// into the live sketch only.
		for _, m := range c.Members {
			m.Feed(100)
		}
		c.Pump(ctx)
		type frozen struct{ acked uint64 }
		before := make([]frozen, len(c.Members))
		for i, m := range c.Members {
			if m.Agent.Synced() {
				t.Fatalf("seed=%d: member %s synced through a partition", seed, m.ID)
			}
			before[i] = frozen{acked: m.Agent.Stats().FramesAcked}
		}
		for round := 0; round < 30; round++ { // a long outage: 3000 items/member
			for _, m := range c.Members {
				m.Feed(100)
			}
			c.Pump(ctx)
		}

		c.Transport.Heal()
		perMemberBefore := make([]uint64, len(c.Members))
		for i, m := range c.Members {
			perMemberBefore[i] = m.Agent.Stats().FramesAcked
			if perMemberBefore[i] != before[i].acked {
				t.Fatalf("seed=%d: member %s had frames acked during the partition", seed, m.ID)
			}
		}
		rounds, ok := c.Converge(ctx, 10)
		if !ok {
			t.Fatalf("seed=%d: did not converge after heal", seed)
		}
		for i, m := range c.Members {
			if drained := m.Agent.Stats().FramesAcked - perMemberBefore[i]; drained > 2 {
				t.Fatalf("seed=%d: member %s needed %d data frames to drain the outage, want ≤ 2 (frozen + coalesced)",
					seed, m.ID, drained)
			}
		}
		t.Logf("seed=%d: outage drained in %d rounds", seed, rounds)
		checkConverged(t, c, true)
	}
}

// TestAgentCrashRestart crashes members mid-stream (losing unacked
// in-memory state), restarts them through the Resume protocol, and
// demands exactly-once accounting end to end. Agents run behind the epoch
// ingest layer to cover the EpochShardedBy path.
func TestAgentCrashRestart(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		for _, seed := range seeds {
			t.Logf("seed=%d", seed)
			c, err := NewCluster(spec, salsa.EpochShardedBy(spec, 2), traces(3, 3000, seed), Plan{Seed: seed, Drop: 0.1, AckLoss: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for round := 0; round < 10; round++ {
				for _, m := range c.Members {
					m.Feed(150)
				}
				c.Pump(ctx)
				// Crash a rotating victim every few rounds.
				if round%3 == 2 {
					victim := c.Members[round/3%len(c.Members)]
					c.Transport.Quiet() // Resume must get through; crash during faults is the partition test's job
					if err := c.Crash(ctx, victim); err != nil {
						t.Fatalf("seed=%d round %d: crash-restart %s: %v", seed, round, victim.ID, err)
					}
					c.Transport.Quiet()
				}
			}
			if _, ok := c.Converge(ctx, 50); !ok {
				t.Fatalf("seed=%d: no convergence after crash-restarts", seed)
			}
			checkConverged(t, c, true)
		}
	})
}

// TestAggregatorCrashRestart wipes the aggregator mid-run. Members learn
// of it through resync acks and rebuild their full contribution under a
// fresh generation; afterwards the empty-restarted aggregator must hold
// the complete exact state again.
func TestAggregatorCrashRestart(t *testing.T) {
	for _, b := range backends {
		for _, seed := range seeds {
			t.Run(b.name, func(t *testing.T) {
				t.Logf("seed=%d", seed)
				c, err := NewCluster(b.spec, b.spec, traces(3, 2000, seed), Plan{Seed: seed, Drop: 0.1, Delay: 0.1})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				for round := 0; round < 6; round++ {
					for _, m := range c.Members {
						m.Feed(150)
					}
					c.Pump(ctx)
				}
				if err := c.CrashAggregator(); err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 6; round++ {
					for _, m := range c.Members {
						m.Feed(150)
					}
					c.Pump(ctx)
				}
				if _, ok := c.Converge(ctx, 50); !ok {
					t.Fatalf("seed=%d: no convergence after aggregator restart", seed)
				}
				checkConverged(t, c, b.wantBytes)
				if c.Agg.Stats().Resyncs == 0 {
					t.Fatalf("seed=%d: restart never triggered a resync", seed)
				}
			})
		}
	}
}

// TestDeterministicReplay pins the harness's own contract: the same seed
// must reproduce the same fault schedule, the same transport counters,
// and the same final bytes.
func TestDeterministicReplay(t *testing.T) {
	run := func() ([]byte, TransportStats) {
		plan := Plan{Seed: 1234, Drop: 0.2, Dup: 0.2, AckLoss: 0.2, Delay: 0.2}
		c, err := NewCluster(cmsFixedSpec(), cmsFixedSpec(), traces(3, 2000, 9), plan)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for round := 0; round < 15; round++ {
			for _, m := range c.Members {
				m.Feed(100)
			}
			c.Pump(ctx)
		}
		if _, ok := c.Converge(ctx, 50); !ok {
			t.Fatal("no convergence")
		}
		blob, err := c.Agg.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		return blob, c.Transport.Stats()
	}
	b1, s1 := run()
	b2, s2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("same seed produced different aggregator bytes")
	}
	if s1 != s2 {
		t.Fatalf("same seed produced different fault schedules: %+v vs %+v", s1, s2)
	}
}

// TestNetworkCostTracksChange pins the steady-state bandwidth claim: once
// the cluster is synced, a push after a small burst of changes must cost
// far less wire than the full-state frame did, because the delta envelope
// is mostly zeros and compresses with the change volume.
func TestNetworkCostTracksChange(t *testing.T) {
	spec := salsa.CountMinOf(salsa.Options{
		Width: 1 << 14, Mode: salsa.ModeBaseline, Merge: salsa.MergeSum, Seed: 5,
	})
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTransport(agg, Plan{})
	ag, err := salsad.NewAgent(salsad.AgentConfig{ID: "edge", Spec: spec, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Bulk load: the first frame carries the whole populated sketch.
	for _, x := range stream.Zipf(60_000, 1<<13, 1.05, 8) {
		ag.Ingest(x)
	}
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	fullWire := ag.Stats().WireBytes

	// Steady state: tiny change volume per push.
	var steady uint64
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			ag.Ingest(uint64(i % 3))
		}
		before := ag.Stats().WireBytes
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
		steady += ag.Stats().WireBytes - before
	}
	perPush := steady / 5
	if perPush*20 > fullWire {
		t.Fatalf("steady-state push costs %d bytes vs %d for the full state; deltas are not tracking change volume",
			perPush, fullWire)
	}
	t.Logf("full-state frame %d bytes, steady-state delta frame %d bytes", fullWire, perPush)
}
