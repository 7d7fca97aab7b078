package faulttest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"salsa"
	"salsa/internal/salsad"
)

// Disk-fault scenarios: kill -9 + restart against a durable snapshot
// directory, with the directory itself under attack. The plans here use
// Drop as the only network fault so every delivered frame is unique —
// that makes the transport's FullFrames counter an exact gauge of
// recovery traffic: one full frame per member ever means zero resyncs
// and zero full resends across every crash in the run.

// newDurableFixture builds a durable cluster, runs a faulted warm-up,
// and converges it so the snapshot directory is populated and hot.
func newDurableFixture(t *testing.T, spec salsa.Spec, seed int64, snapshotEvery int) *Cluster {
	t.Helper()
	c, err := NewDurableCluster(spec, spec, traces(3, 2000, seed),
		Plan{Seed: seed, Drop: 0.15}, t.TempDir(), snapshotEvery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 8; round++ {
		for _, m := range c.Members {
			m.Feed(150)
		}
		c.Pump(ctx)
	}
	if _, ok := c.Converge(ctx, 50); !ok {
		t.Fatalf("seed=%d: warm-up did not converge", seed)
	}
	return c
}

// TestDurableAggregatorCrashZeroResync is the headline durability claim:
// a snapshotting aggregator survives kill -9 with zero resyncs and zero
// full-state retransmissions — recovery traffic is O(delta since last
// ack), never O(cluster state).
func TestDurableAggregatorCrashZeroResync(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		for _, seed := range seeds {
			t.Logf("seed=%d", seed)
			c := newDurableFixture(t, spec, seed, 1)
			ctx := context.Background()
			fullBefore := c.Transport.Stats().FullFrames

			for crash := 0; crash < 3; crash++ {
				if err := c.CrashAggregator(); err != nil {
					t.Fatal(err)
				}
				if err := c.Agg.RestoreError(); err != nil {
					t.Fatalf("seed=%d: clean restore failed: %v", seed, err)
				}
				for round := 0; round < 4; round++ {
					for _, m := range c.Members {
						m.Feed(100)
					}
					c.Pump(ctx)
				}
			}
			if _, ok := c.Converge(ctx, 50); !ok {
				t.Fatalf("seed=%d: no convergence across durable restarts", seed)
			}
			if n := c.Agg.Stats().Resyncs; n != 0 {
				t.Fatalf("seed=%d: durable restarts cost %d resyncs, want 0", seed, n)
			}
			if full := c.Transport.Stats().FullFrames; full != fullBefore {
				t.Fatalf("seed=%d: %d full-state frames crossed the wire after restarts (had %d)",
					seed, full-fullBefore, fullBefore)
			}
			checkConverged(t, c, true)
		}
	})
}

// TestDurableAggregatorCorruptNewestFallsBack damages the newest
// snapshot, by a bit flip or by truncation to half its length: the restart
// must fall back to the older one, and the member whose frame only the
// damaged snapshot held re-establishes itself via one resync — recovery
// bounded by the snapshot interval, not cluster size.
func TestDurableAggregatorCorruptNewestFallsBack(t *testing.T) {
	attacks := []struct {
		name   string
		damage func(dir string) (string, error)
	}{
		{"corrupt", CorruptLatestSnapshot},
		{"truncate", TruncateLatestSnapshot},
	}
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		for _, attack := range attacks {
			t.Run(attack.name, func(t *testing.T) {
				seed := seeds[0]
				c := newDurableFixture(t, spec, seed, 1)
				ctx := context.Background()

				path, err := attack.damage(c.DataDir)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("corrupted %s (%s)", filepath.Base(path), attack.name)
				if err := c.CrashAggregator(); err != nil {
					t.Fatal(err)
				}
				// An older snapshot loaded: not a restore failure, but a
				// stale frontier some member is ahead of.
				if err := c.Agg.RestoreError(); err != nil {
					t.Fatalf("fallback restore failed outright: %v", err)
				}
				for round := 0; round < 4; round++ {
					for _, m := range c.Members {
						m.Feed(100)
					}
					c.Pump(ctx)
				}
				if _, ok := c.Converge(ctx, 50); !ok {
					t.Fatal("no convergence after fallback restore")
				}
				if n := c.Agg.Stats().Resyncs; n == 0 {
					t.Fatal("stale fallback frontier never forced a resync — a gapped frame was absorbed silently")
				} else if n > uint64(len(c.Members)) {
					t.Fatalf("fallback cost %d resyncs for %d members; recovery is not bounded by the delta",
						n, len(c.Members))
				}
				checkConverged(t, c, true)
			})
		}
	})
}

// TestDurableAggregatorAllSnapshotsCorrupt is the total-disk-loss case:
// restore fails with a typed SnapshotError, the aggregator starts empty,
// and the cluster recovers through the ordinary resync path — corruption
// degrades to the volatile behavior, never to wrong answers.
func TestDurableAggregatorAllSnapshotsCorrupt(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[1]
		c := newDurableFixture(t, spec, seed, 1)
		ctx := context.Background()

		if _, err := CorruptAllSnapshots(c.DataDir); err != nil {
			t.Fatal(err)
		}
		if err := c.CrashAggregator(); err != nil {
			t.Fatal(err)
		}
		var snapErr *salsad.SnapshotError
		if err := c.Agg.RestoreError(); !errors.As(err, &snapErr) {
			t.Fatalf("want a typed *salsad.SnapshotError, got %v", err)
		}
		if snapErr.Path == "" || snapErr.Reason == "" {
			t.Fatalf("snapshot error does not name the evidence: %+v", snapErr)
		}
		if _, ok := c.Converge(ctx, 50); !ok {
			t.Fatal("no convergence after total snapshot loss")
		}
		if c.Agg.Stats().Resyncs == 0 {
			t.Fatal("empty restart never resynced — where did the state come from?")
		}
		checkConverged(t, c, true)
	})
}

// TestDurableAggregatorStaleReplayRejected restores a backup of the
// oldest snapshot over the newest epoch — the classic operator mistake.
// The embedded epoch gives the forgery away; the genuine newest state
// loads instead and nothing resyncs.
func TestDurableAggregatorStaleReplayRejected(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[2]
		c := newDurableFixture(t, spec, seed, 1)
		ctx := context.Background()

		forged, err := ReplayStaleSnapshot(c.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("forged %s", filepath.Base(forged))
		if err := c.CrashAggregator(); err != nil {
			t.Fatal(err)
		}
		if err := c.Agg.RestoreError(); err != nil {
			t.Fatalf("restore failed instead of skipping the forgery: %v", err)
		}
		fullBefore := c.Transport.Stats().FullFrames
		for round := 0; round < 4; round++ {
			for _, m := range c.Members {
				m.Feed(100)
			}
			c.Pump(ctx)
		}
		if _, ok := c.Converge(ctx, 50); !ok {
			t.Fatal("no convergence after stale replay")
		}
		if n := c.Agg.Stats().Resyncs; n != 0 {
			t.Fatalf("stale replay cost %d resyncs; the genuine newest snapshot should have loaded", n)
		}
		if full := c.Transport.Stats().FullFrames; full != fullBefore {
			t.Fatal("full-state frames crossed the wire after a rejected stale replay")
		}
		checkConverged(t, c, true)
	})
}

// TestDurableAggregatorTornTmpSwept plants a crash-mid-write .tmp file:
// it must never be loaded, and the restarted store sweeps it.
func TestDurableAggregatorTornTmpSwept(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[0]
		c := newDurableFixture(t, spec, seed, 1)

		tmp, err := TornTmpSnapshot(c.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CrashAggregator(); err != nil {
			t.Fatal(err)
		}
		if err := c.Agg.RestoreError(); err != nil {
			t.Fatalf("a .tmp file disturbed the restore: %v", err)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("torn tmp file still present after restart: %v", err)
		}
		if _, ok := c.Converge(context.Background(), 20); !ok {
			t.Fatal("no convergence after tmp sweep")
		}
		checkConverged(t, c, true)
	})
}

// TestDurableCrashDuringSnapshotWindow crashes the aggregator between
// persistence ticks (SnapshotEvery larger than the applied count since
// the last tick), so real acknowledged frames die with the process. The
// survivors' gapped pushes must resync — lossy-but-safe, never silent
// absorption — and the cluster still converges to the exact answer.
func TestDurableCrashDuringSnapshotWindow(t *testing.T) {
	forEachCMS(t, func(t *testing.T, spec salsa.Spec) {
		seed := seeds[1]
		// A wide persistence interval guarantees un-persisted applied frames.
		c := newDurableFixture(t, spec, seed, 1000)
		ctx := context.Background()

		if err := c.CrashAggregator(); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			for _, m := range c.Members {
				m.Feed(100)
			}
			c.Pump(ctx)
		}
		if _, ok := c.Converge(ctx, 50); !ok {
			t.Fatal("no convergence after lossy restart")
		}
		if c.Agg.Stats().Resyncs == 0 && c.Agg.Stats().Applied > 0 {
			// Whether anything was lost depends on the snapshot interval vs
			// warm-up length; with SnapshotEvery=1000 nothing was ever
			// persisted, so every member must have resynced.
			t.Fatal("acknowledged-but-unpersisted frames were absorbed without a resync")
		}
		checkConverged(t, c, true)
	})
}
