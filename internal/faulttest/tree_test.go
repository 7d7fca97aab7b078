package faulttest

import (
	"bytes"
	"context"
	"testing"

	"salsa"
)

// Multi-tier scenarios: edge agents → relays → root, every link faulty,
// every tier crashable. Each scenario runs over fixed and SALSA CountMin
// counters, and the quiesced root must be byte-identical to the no-fault
// reference in every one.

func treeTraces(relays, perRelay, items int, seed int64) [][][]uint64 {
	flat := traces(relays*perRelay, items, seed)
	out := make([][][]uint64, relays)
	for i := range out {
		out[i] = flat[i*perRelay : (i+1)*perRelay]
	}
	return out
}

// checkTreeConverged asserts the quiesced root is byte-identical to the
// sequential no-fault reference.
func checkTreeConverged(t *testing.T, tr *Tree) {
	t.Helper()
	got, err := tr.Root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.ReferenceBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quiesced root (%d bytes) is not byte-identical to the no-fault reference (%d bytes)",
			len(got), len(want))
	}
}

// runTree feeds and pumps the whole tree for the given rounds.
func runTree(ctx context.Context, tr *Tree, rounds, perRound int) {
	for round := 0; round < rounds; round++ {
		tr.FeedAll(perRound)
		tr.Pump(ctx)
	}
}

// TestTreeLossyConvergence drives a 2-relay tree through lossy networks
// on all four links (two downlinks, two uplinks) and demands the exact
// no-fault root.
func TestTreeLossyConvergence(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		for _, seed := range seeds {
			t.Logf("seed=%d", seed)
			tr, err := NewTree(spec, spec, treeTraces(2, 2, 2000, seed),
				TreeOptions{Plan: Plan{Seed: seed, Drop: 0.15, Dup: 0.1, AckLoss: 0.1, Delay: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			runTree(ctx, tr, 15, 120)
			rounds, ok := tr.Converge(ctx, 60)
			if !ok {
				t.Fatalf("seed=%d: tree did not converge in 60 clean rounds", seed)
			}
			t.Logf("seed=%d: converged after %d clean rounds", seed, rounds)
			checkTreeConverged(t, tr)
			// The root must see relays, not edge agents: exactly 2 senders,
			// both at depth 1, root tier depth 2.
			if agents := tr.Root.Agents(); len(agents) != 2 {
				t.Fatalf("seed=%d: root membership: %+v", seed, agents)
			}
			if d := tr.Root.StatsView().TierDepth; d != 2 {
				t.Fatalf("seed=%d: root tier depth = %d, want 2", seed, d)
			}
		}
	})
}

// TestTreeDurableRelayCrash kills a relay whose state is on disk: it
// must come back with table, generation, and shadow intact — no member
// below it resyncs, no full frame crosses its uplink, and the root never
// notices.
func TestTreeDurableRelayCrash(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		for _, seed := range seeds {
			t.Logf("seed=%d", seed)
			tr, err := NewTree(spec, spec, treeTraces(2, 2, 2000, seed),
				TreeOptions{Plan: Plan{Seed: seed, Drop: 0.15}, DataDir: t.TempDir(), SnapshotEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			runTree(ctx, tr, 8, 120)
			if _, ok := tr.Converge(ctx, 60); !ok {
				t.Fatalf("seed=%d: warm-up did not converge", seed)
			}
			fullBefore := tr.UplinkFullFrames()
			rootResyncsBefore := tr.Root.Stats().Resyncs

			if err := tr.CrashRelay(0); err != nil {
				t.Fatal(err)
			}
			if err := tr.Relays[0].Relay.RestoreError(); err != nil {
				t.Fatalf("seed=%d: relay restore failed: %v", seed, err)
			}
			runTree(ctx, tr, 4, 100)
			if _, ok := tr.Converge(ctx, 60); !ok {
				t.Fatalf("seed=%d: no convergence after durable relay crash", seed)
			}
			if full := tr.UplinkFullFrames(); full != fullBefore {
				t.Fatalf("seed=%d: %d full frames crossed the uplinks after a durable relay crash",
					seed, full-fullBefore)
			}
			if n := tr.Root.Stats().Resyncs - rootResyncsBefore; n != 0 {
				t.Fatalf("seed=%d: durable relay crash cost %d root resyncs", seed, n)
			}
			if n := tr.Relays[0].Relay.Agg().Stats().Resyncs; n != 0 {
				t.Fatalf("seed=%d: members resynced %d times into the restored relay", seed, n)
			}
			checkTreeConverged(t, tr)
		}
	})
}

// TestTreeVolatileRelayCrash is the contrast case: a relay with no disk
// comes back empty, its members rebuild their contributions, the relay
// rebuilds its uplink contribution under a fresh generation — more
// traffic, same exact answer.
func TestTreeVolatileRelayCrash(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[0]
		tr, err := NewTree(spec, spec, treeTraces(2, 2, 2000, seed),
			TreeOptions{Plan: Plan{Seed: seed, Drop: 0.1}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		runTree(ctx, tr, 8, 120)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("warm-up did not converge")
		}
		fullBefore := tr.UplinkFullFrames()

		if err := tr.CrashRelay(1); err != nil {
			t.Fatal(err)
		}
		runTree(ctx, tr, 4, 100)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("no convergence after volatile relay crash")
		}
		if full := tr.UplinkFullFrames(); full == fullBefore {
			t.Fatal("volatile relay crash produced no full-state rebuild — what did the root merge?")
		}
		if tr.Relays[1].Relay.Agg().Stats().Resyncs == 0 {
			t.Fatal("members never resynced into the empty relay")
		}
		checkTreeConverged(t, tr)
	})
}

// TestTreeDurableRootCrash kills the root: durable restart keeps every
// relay's frontier, so recovery is zero resyncs and zero full frames on
// every uplink.
func TestTreeDurableRootCrash(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[1]
		tr, err := NewTree(spec, spec, treeTraces(2, 2, 2000, seed),
			TreeOptions{Plan: Plan{Seed: seed, Drop: 0.15}, DataDir: t.TempDir(), SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		runTree(ctx, tr, 8, 120)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("warm-up did not converge")
		}
		fullBefore := tr.UplinkFullFrames()

		if err := tr.CrashRoot(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Root.RestoreError(); err != nil {
			t.Fatalf("root restore failed: %v", err)
		}
		runTree(ctx, tr, 4, 100)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("no convergence after durable root crash")
		}
		if n := tr.Root.Stats().Resyncs; n != 0 {
			t.Fatalf("durable root restart cost %d resyncs", n)
		}
		if full := tr.UplinkFullFrames(); full != fullBefore {
			t.Fatal("full frames crossed the uplinks after a durable root restart")
		}
		checkTreeConverged(t, tr)
	})
}

// TestTreeSimultaneousRestarts is the datacenter-power-blip scenario:
// root AND every relay die in the same instant, all durable. Everything
// restores from disk; the whole tree reconverges with zero resyncs at
// every tier.
func TestTreeSimultaneousRestarts(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[2]
		tr, err := NewTree(spec, spec, treeTraces(2, 2, 2000, seed),
			TreeOptions{Plan: Plan{Seed: seed, Drop: 0.15}, DataDir: t.TempDir(), SnapshotEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		runTree(ctx, tr, 8, 120)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("warm-up did not converge")
		}
		fullBefore := tr.UplinkFullFrames()

		if err := tr.CrashRoot(); err != nil {
			t.Fatal(err)
		}
		for i := range tr.Relays {
			if err := tr.CrashRelay(i); err != nil {
				t.Fatal(err)
			}
		}
		runTree(ctx, tr, 4, 100)
		if _, ok := tr.Converge(ctx, 60); !ok {
			t.Fatal("no convergence after simultaneous restarts")
		}
		if n := tr.Root.Stats().Resyncs; n != 0 {
			t.Fatalf("simultaneous durable restarts cost %d root resyncs", n)
		}
		for i, node := range tr.Relays {
			if n := node.Relay.Agg().Stats().Resyncs; n != 0 {
				t.Fatalf("relay %d absorbed %d member resyncs after its durable restart", i, n)
			}
		}
		if full := tr.UplinkFullFrames(); full != fullBefore {
			t.Fatal("full frames crossed the uplinks after simultaneous durable restarts")
		}
		checkTreeConverged(t, tr)
	})
}

// TestTreeInterTierPartition severs one relay's uplink while its subtree
// keeps absorbing traffic, then heals: the outage must drain in at most
// two data frames on that uplink (the frozen frame plus one coalesced
// delta), regardless of outage length — the relay's table coalesces the
// whole backlog exactly like an edge agent's sketch does.
func TestTreeInterTierPartition(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[0]
		tr, err := NewTree(spec, spec, treeTraces(2, 2, 4000, seed),
			TreeOptions{Plan: Plan{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		runTree(ctx, tr, 5, 150)
		if _, ok := tr.Converge(ctx, 30); !ok {
			t.Fatal("warm-up did not converge")
		}

		cut := tr.Relays[0]
		cut.Up.Partition(true)
		// A long outage: the subtree keeps feeding and pushing the whole time.
		runTree(ctx, tr, 20, 100)
		if cut.Relay.Synced() {
			t.Fatal("relay synced through a partitioned uplink")
		}
		ackedBefore := cut.Relay.Stats().FramesAcked

		cut.Up.Heal()
		if _, ok := tr.Converge(ctx, 30); !ok {
			t.Fatal("no convergence after heal")
		}
		if drained := cut.Relay.Stats().FramesAcked - ackedBefore; drained > 2 {
			t.Fatalf("uplink outage drained in %d data frames, want ≤ 2 (frozen + coalesced)", drained)
		}
		checkTreeConverged(t, tr)
	})
}
