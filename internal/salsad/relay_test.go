package salsad

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"salsa"
)

// corruptFile flips one bit in the middle of the file at path.
func corruptFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}

// newTestRelay wires a relay over a directTransport to the given root.
func newTestRelay(t *testing.T, root *Aggregator, cfg RelayConfig) (*Relay, *directTransport) {
	t.Helper()
	tr := &directTransport{agg: root}
	if cfg.ID == "" {
		cfg.ID = "relay-1"
	}
	if cfg.Spec == nil {
		cfg.Spec = testSpec()
	}
	cfg.Upstream = tr
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {}
	}
	r, err := NewRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, tr
}

// senderRoles names the two roles that ship frames upstream.
var senderRoles = []string{"agent", "relay"}

// sender is the sending surface an Agent and a Relay share.
type sender interface {
	PushOnce(context.Context) error
	Stats() AgentStats
	backoff(n int) time.Duration
}

// newSender builds an agent or a relay (by role) over a directTransport
// to root, with cfg's id and retry settings, holding items that have not
// yet been shipped.
func newSender(t *testing.T, role string, root *Aggregator, cfg AgentConfig, items ...uint64) (sender, *directTransport) {
	t.Helper()
	if role == "agent" {
		tr := &directTransport{agg: root}
		cfg.Transport = tr
		ag := newTestAgent(t, cfg)
		for _, x := range items {
			ag.Ingest(x)
		}
		return ag, tr
	}
	r, tr := newTestRelay(t, root, RelayConfig{
		ID: cfg.ID, Generation: 1,
		MaxAttempts: cfg.MaxAttempts, BackoffBase: cfg.BackoffBase, BackoffCap: cfg.BackoffCap,
		JitterSeed: cfg.JitterSeed, Sleep: cfg.Sleep,
	})
	if len(items) > 0 {
		feedRelay(t, r, "e1", 1, 1, items...)
	}
	return r, tr
}

// feedRelay pushes agent frames into the relay's downstream table.
func feedRelay(t *testing.T, r *Relay, agent string, gen, seq uint64, items ...uint64) {
	t.Helper()
	flags := byte(0)
	if seq == 1 {
		flags = FlagFull
	}
	ack := push(t, r.Agg(), &Push{Agent: agent, Gen: gen, Seq: seq, Flags: flags,
		Envelope: envelopeFor(t, items...)})
	if ack.Status != StatusApplied {
		t.Fatalf("feed %s gen %d seq %d: %v", agent, gen, seq, ack.Status)
	}
}

func TestRelayDeltaCycle(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1})
	ctx := context.Background()

	feedRelay(t, r, "e1", 1, 1, 10, 10, 11)
	feedRelay(t, r, "e2", 1, 1, 12)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !r.Synced() {
		t.Fatal("relay not synced after clean push")
	}
	// Second round is a delta: only the new traffic crosses the uplink.
	feedRelay(t, r, "e1", 1, 2, 10)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := queryOne(t, root, 10); got != 3 {
		t.Fatalf("root count(10) = %d, want 3", got)
	}
	// Root sees the relay's merged table as one contribution; bytes must
	// match the relay's own snapshot.
	want, err := r.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("root diverged from the relay's table")
	}
	st := r.Stats()
	if st.FramesAcked != 2 || st.Resyncs != 0 {
		t.Fatalf("relay stats: %+v", st)
	}
}

func TestRelayIdleHeartbeat(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1})
	ctx := context.Background()
	feedRelay(t, r, "e1", 1, 1, 5)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// Nothing new applied: the next rounds are lease-renewing heartbeats,
	// not data frames.
	for i := 0; i < 3; i++ {
		if err := r.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Heartbeats != 3 || st.FramesAcked != 1 {
		t.Fatalf("stats after idle rounds: %+v", st)
	}
}

func TestRelayDepthGauge(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1})
	feedRelay(t, r, "e1", 1, 1, 5)
	if err := r.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Edge agents are depth 0, the relay's table is depth 1, the root
	// above it depth 2.
	if d := r.Agg().StatsView().TierDepth; d != 1 {
		t.Fatalf("relay tier depth = %d, want 1", d)
	}
	if d := root.StatsView().TierDepth; d != 2 {
		t.Fatalf("root tier depth = %d, want 2", d)
	}
	agents := root.Agents()
	if len(agents) != 1 || agents[0].Depth != 1 {
		t.Fatalf("root membership: %+v", agents)
	}
	// The relay's upstream counters surface on its stats view.
	if up := r.Agg().StatsView().Upstream; up == nil || up.FramesAcked != 1 {
		t.Fatalf("upstream stats view: %+v", up)
	}
}

func TestRelayResyncAfterRootWipe(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, tr := newTestRelay(t, root, RelayConfig{Generation: 1})
	ctx := context.Background()
	feedRelay(t, r, "e1", 1, 1, 1, 2, 3)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// The root restarts without durable state.
	newRoot := newTestAggregator(t, AggregatorConfig{})
	tr.agg = newRoot
	feedRelay(t, r, "e1", 1, 2, 4)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", r.Stats().Resyncs)
	}
	// The full replacing snapshot rebuilt everything, not just the delta.
	want, err := r.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := newRoot.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resync did not rebuild the root")
	}
}

func TestRelayFreshGenerationResolvedFromUpstream(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	// A dead incarnation left gen 5 at the root.
	push(t, root, &Push{Agent: "relay-1", Gen: 5, Seq: 1, Flags: FlagFull | FlagRelay,
		Depth: 1, Envelope: envelopeFor(t, 9)})
	r, _ := newTestRelay(t, root, RelayConfig{}) // Generation 0: resolve via Resume
	feedRelay(t, r, "e1", 1, 1, 9)
	if err := r.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g := r.Gen(); g != 6 {
		t.Fatalf("resolved generation %d, want 6", g)
	}
	// Its first frame replaced the dead incarnation's contribution.
	if got := queryOne(t, root, 9); got != 1 {
		t.Fatalf("count(9) = %d, want 1 (replace, not add)", got)
	}
}

func TestRelayDurableRestartRetriesFrozenFrame(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, tr := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir, MaxAttempts: 1})
	ctx := context.Background()
	feedRelay(t, r, "e1", 1, 1, 1, 1, 2)

	// The uplink eats every attempt: the frame is cut, persisted (the
	// durability barrier), transmitted, and lost.
	tr.failN = 99
	if err := r.PushOnce(ctx); !errors.Is(err, ErrPushFailed) {
		t.Fatalf("want ErrPushFailed, got %v", err)
	}
	wantFrame, err := r.currentFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}

	// kill -9; a new incarnation restores table AND frozen frame.
	r2, tr2 := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir})
	if err := r2.RestoreError(); err != nil {
		t.Fatal(err)
	}
	gotFrame, err := r2.currentFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFrame, wantFrame) {
		t.Fatal("restored frame is not byte-identical — retry dedup would break")
	}
	tr2.failN = 0
	if err := r2.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if r2.Stats().Resyncs != 0 {
		t.Fatal("durable relay restart caused a resync")
	}
	want, err := r2.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("root diverged after durable relay restart")
	}
}

// TestRelayRejectsVersion1FrozenFrame pins the upgrade path: a durable
// relay whose newest snapshot holds a frozen frame in wire version 1, as
// the previous binary wrote it, rejects the frame on restart, burns its
// generation and rebuilds the root through a FlagFull resync.
func TestRelayRejectsVersion1FrozenFrame(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, tr := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir, MaxAttempts: 1})
	ctx := context.Background()
	feedRelay(t, r, "e1", 1, 1, 1, 1, 2)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// The next frame is cut, persisted and lost on the uplink.
	feedRelay(t, r, "e1", 1, 2, 3)
	tr.failN = 99
	if err := r.PushOnce(ctx); !errors.Is(err, ErrPushFailed) {
		t.Fatalf("want ErrPushFailed, got %v", err)
	}
	r.currentFrame().wire[4] = 1 // the version byte
	if _, err := r.Persist(); err != nil {
		t.Fatal(err)
	}

	r2, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir})
	var se *SnapshotError
	if err := r2.RestoreError(); !errors.As(err, &se) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("want a *SnapshotError wrapping ErrBadFrame, got %v", err)
	}
	if g := r2.Gen(); g != 0 {
		t.Fatalf("gen = %d, want the resolve-fresh sentinel 0", g)
	}
	if err := r2.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if g := r2.Gen(); g <= 1 {
		t.Fatalf("rejoined under gen %d; the persisted generation was not burned", g)
	}
	want, err := r2.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("root diverged after the version-1 frame was rejected")
	}
	if got := queryOne(t, root, 3); got != 1 {
		t.Fatalf("root count(3) = %d, want 1 from the frame the old binary froze", got)
	}
}

func TestRelayDistrustsSkippedSnapshots(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir})
	ctx := context.Background()
	feedRelay(t, r, "e1", 1, 1, 1, 2)
	if err := r.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Persist(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the NEWEST snapshot: the restart falls back to an older one
	// whose frontier may predate transmitted frames — it must not be
	// trusted for dedup.
	store := r.Agg().Store()
	res, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if err := corruptFile(res.Path); err != nil {
		t.Fatal(err)
	}

	r2, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir})
	if g := r2.Gen(); g != 0 {
		t.Fatalf("gen = %d, want the resolve-fresh sentinel 0", g)
	}
	feedRelay(t, r2, "e1", 2, 1, 1, 2, 3)
	if err := r2.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if g := r2.Gen(); g <= 1 {
		t.Fatalf("rejoined under gen %d; the persisted generation was not burned", g)
	}
	// Convergence via the full-replacement path.
	want, err := r2.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("root diverged after distrusted restore")
	}
}

func TestRelayPersistRidesDownstreamApplies(t *testing.T) {
	dir := t.TempDir()
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir, SnapshotEvery: 2})
	feedRelay(t, r, "e1", 1, 1, 1)
	feedRelay(t, r, "e1", 1, 2, 2)
	// The transport/handler persistence tick.
	if ok, err := r.Agg().MaybePersist(); err != nil || !ok {
		t.Fatalf("MaybePersist: ok=%v err=%v", ok, err)
	}
	// A relay restarted from that snapshot has the table without any
	// upstream push ever having happened.
	r2, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: dir})
	if err := r2.RestoreError(); err != nil {
		t.Fatal(err)
	}
	if got := queryOne(t, r2.Agg(), 2); got != 1 {
		t.Fatalf("restored table count(2) = %d, want 1", got)
	}
	if info := r2.Agg().Resume("e1"); !info.Known || info.Seq != 2 {
		t.Fatalf("restored downstream frontier: %+v", info)
	}
}

func TestNewRelayRejects(t *testing.T) {
	tr := &directTransport{agg: newTestAggregator(t, AggregatorConfig{})}
	for _, c := range []struct {
		name, field string
		cfg         RelayConfig
	}{
		{"missing id", "ID", RelayConfig{Spec: testSpec(), Upstream: tr}},
		{"missing upstream", "Upstream", RelayConfig{ID: "r", Spec: testSpec()}},
		{"missing spec", "Spec", RelayConfig{ID: "r", Upstream: tr}},
	} {
		var ce *ConfigError
		if _, err := NewRelay(c.cfg); !errors.As(err, &ce) || ce.Field != c.field {
			t.Fatalf("%s: got %v, want a *ConfigError for %s", c.name, err, c.field)
		}
	}
}

func TestPushRelayDepthRoundTrip(t *testing.T) {
	p := &Push{Agent: "r", Gen: 2, Seq: 3, Cursor: 9, Flags: FlagRelay | FlagFull,
		Depth: 4, Envelope: envelopeFor(t, 1)}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	q, err := DecodePush(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Relay() || q.Depth != 4 {
		t.Fatalf("depth lost: relay=%v depth=%d", q.Relay(), q.Depth)
	}
	// Depth without the relay flag is malformed by construction.
	if _, err := (&Push{Agent: "r", Depth: 1, Flags: FlagHeartbeat}).Encode(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("depth on non-relay frame: %v", err)
	}
}

func TestAgentJitterSeedDeterminism(t *testing.T) {
	schedule := func(role string, seed uint64) []time.Duration {
		var out []time.Duration
		s, _ := newSender(t, role, newTestAggregator(t, AggregatorConfig{}), AgentConfig{ID: "j", JitterSeed: seed})
		for i := 0; i < 8; i++ {
			out = append(out, s.backoff(i%3))
		}
		return out
	}
	for _, role := range senderRoles {
		t.Run(role, func(t *testing.T) {
			a, b := schedule(role, 42), schedule(role, 42)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seeded schedules diverged at %d: %v vs %v", i, a[i], b[i])
				}
			}
		})
	}
	// Both roles draw the same schedule from the same seed and defaults.
	if a, r := schedule("agent", 42), schedule("relay", 42); !slices.Equal(a, r) {
		t.Fatalf("agent and relay schedules differ: %v vs %v", a, r)
	}
}

// TestSenderEmptyStateShipsFullFrame pins the frame a sender owes when it
// must replace its upstream contribution but holds nothing: an empty
// FlagFull frame, never a heartbeat, which could not replace anything.
func TestSenderEmptyStateShipsFullFrame(t *testing.T) {
	ctx := context.Background()
	t.Run("agent", func(t *testing.T) {
		// The root does not know the id, so it answers the agent's
		// heartbeat with a resync, and the resync with its full frame.
		root := newTestAggregator(t, AggregatorConfig{})
		ag := newTestAgent(t, AgentConfig{ID: "edge", Transport: &directTransport{agg: root}})
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if st := ag.Stats(); st.Resyncs != 1 || st.FramesAcked != 1 {
			t.Fatalf("stats %+v, want 1 resync and 1 acknowledged data frame", st)
		}
		if !ag.Synced() {
			t.Fatal("agent not synced after its full frame")
		}
		if info := root.Resume("edge"); !info.Known || info.Gen != 2 || info.Seq != 1 {
			t.Fatalf("root row %+v, want gen 2 seq 1", info)
		}
	})
	t.Run("relay", func(t *testing.T) {
		// A dead incarnation left item 9 at the root under gen 5.
		root := newTestAggregator(t, AggregatorConfig{})
		push(t, root, &Push{Agent: "relay-1", Gen: 5, Seq: 1, Flags: FlagFull | FlagRelay,
			Depth: 1, Envelope: envelopeFor(t, 9)})
		r, _ := newTestRelay(t, root, RelayConfig{}) // empty table, Generation 0
		if err := r.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if g := r.Gen(); g != 6 {
			t.Fatalf("resolved generation %d, want 6", g)
		}
		if got := queryOne(t, root, 9); got != 0 {
			t.Fatalf("count(9) = %d, want 0: the empty table replaces the dead incarnation", got)
		}
	})
}

// TestRelayPushesWhileApplying runs upstream pushes while downstream
// frames land and persist after each one, and while a third goroutine
// reads the relay's gauges: the concurrency the relay's lock exists for.
func TestRelayPushesWhileApplying(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1, DataDir: t.TempDir(), SnapshotEvery: 1})
	const frames = 200
	envs := make([][]byte, frames+1)
	for seq := 1; seq <= frames; seq++ {
		envs[seq] = envelopeFor(t, uint64(seq%17), uint64(seq%5))
	}

	applied := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(applied)
		for seq := uint64(1); seq <= frames; seq++ {
			ack, err := r.Agg().ApplyPush(&Push{Agent: "e1", Gen: 1, Seq: seq, Envelope: envs[seq]})
			if err != nil || ack.Status != StatusApplied {
				t.Errorf("apply seq %d: %v %v", seq, ack, err)
				return
			}
			if _, err := r.Agg().MaybePersist(); err != nil {
				t.Errorf("persist after seq %d: %v", seq, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-applied:
				return
			default:
			}
			_, _, _ = r.Stats(), r.Synced(), r.Gen()
			_ = r.Agg().StatsView()
			runtime.Gosched()
		}
	}()

	ctx := context.Background()
	for running := true; running; {
		select {
		case <-applied:
			running = false
		default:
		}
		if err := r.PushOnce(ctx); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for try := 0; !r.Synced(); try++ {
		if try == 3 {
			t.Fatal("relay did not sync")
		}
		if err := r.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	want, err := r.Agg().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("root diverged from the relay's table")
	}
}

// TestRelayForwardsHeaviestCandidates: a relay's pool can exceed the
// per-push cap, and the cut must keep the heaviest candidates — ranked by
// the relay's merged estimate, ties by ascending id — not the smallest ids.
func TestRelayForwardsHeaviestCandidates(t *testing.T) {
	root := newTestAggregator(t, AggregatorConfig{})
	r, _ := newTestRelay(t, root, RelayConfig{Generation: 1})
	const heavy = uint64(1) << 40 // larger than every light id
	var light []uint64
	for it := uint64(1); it < MaxPushCandidates+100; it++ {
		light = append(light, it)
	}
	heavyItems := light[300:]
	for i := 0; i < 50; i++ {
		heavyItems = append(heavyItems, heavy)
	}
	push(t, r.Agg(), &Push{Agent: "e1", Gen: 1, Seq: 1, Flags: FlagFull,
		Candidates: light[:300], Envelope: envelopeFor(t, light[:300]...)})
	push(t, r.Agg(), &Push{Agent: "e2", Gen: 1, Seq: 1, Flags: FlagFull,
		Candidates: append(append([]uint64(nil), light[300:]...), heavy), Envelope: envelopeFor(t, heavyItems...)})
	if err := r.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The relay's own /v1/top ranking of its pool is the reference: the
	// root must hold exactly its first MaxPushCandidates entries.
	want, err := r.Agg().Top(MaxPushCandidates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := root.Top(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Item != heavy {
		t.Fatalf("root top = %v, want the heavy item %d first", got[:min(3, len(got))], heavy)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("root received %d candidates, not the relay's %d heaviest", len(got), len(want))
	}
}

// cutChecker sits between a sender and its upstream. At the first
// transmission of each data frame it computes the frame's envelope the
// way a sender cut it by decoding its state's envelope twice: Marshal of
// the owner's state, Unmarshal, SubtractInto a reference shadow, Marshal.
// The frame must carry exactly that envelope, and every retry must resend
// the first transmission's bytes. The reference shadow advances to the
// decoded state when upstream acknowledges the frame and is dropped on a
// resync demand.
type cutChecker struct {
	t     *testing.T
	next  *directTransport
	state func() salsa.Sketch
	// gen/seq/wire identify the data frame in flight and its bytes;
	// frameState is its decoded state.
	gen, seq   uint64
	wire       []byte
	frameState salsa.Sketch
	shadow     salsa.Sketch
	checked    int
}

func (c *cutChecker) Push(ctx context.Context, p *Push) (*Ack, error) {
	t := c.t
	if !p.Heartbeat() {
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if p.Gen == c.gen && p.Seq == c.seq {
			if !bytes.Equal(enc, c.wire) {
				t.Fatalf("%s gen %d seq %d: a retry changed the frame's bytes", p.Agent, p.Gen, p.Seq)
			}
		} else {
			env := marshalState(t, c.state())
			if c.frameState, err = salsa.Unmarshal(env); err != nil {
				t.Fatal(err)
			}
			want := env
			if c.shadow != nil {
				delta, err := salsa.Unmarshal(env)
				if err != nil {
					t.Fatal(err)
				}
				if err := salsa.SubtractInto(delta, c.shadow); err != nil {
					t.Fatal(err)
				}
				want = marshalState(t, delta)
			}
			if !bytes.Equal(p.Envelope, want) {
				t.Fatalf("%s gen %d seq %d: envelope differs from the decode-twice cut", p.Agent, p.Gen, p.Seq)
			}
			c.gen, c.seq, c.wire = p.Gen, p.Seq, enc
			c.checked++
		}
	}
	ack, err := c.next.Push(ctx, p)
	switch {
	case err != nil:
	case ack.Status == StatusResync:
		c.shadow = nil
	case !p.Heartbeat():
		c.shadow = c.frameState
	}
	return ack, err
}

func (c *cutChecker) Resume(ctx context.Context, agent string) (*ResumeInfo, error) {
	return c.next.Resume(ctx, agent)
}

// TestSenderCutMatchesEnvelopeCut checks every data frame a plain agent,
// an epoch agent and a durable relay freeze against the decode-twice cut
// (cutChecker), through deltas, heartbeats, a failed delivery retried, a
// resync that forces a FlagFull frame and, for the relay, a restart that
// restores its frozen frame from disk. Sketches recycled between cuts
// that alias the shadow or a frozen frame's state show up as a differing
// envelope.
func TestSenderCutMatchesEnvelopeCut(t *testing.T) {
	ctx := context.Background()
	items := func(round int) []uint64 {
		out := make([]uint64, 400)
		for i := range out {
			out[i] = uint64(i*i+round) % 61
		}
		return out
	}
	// script drives one sender; feed adds a round of items, push is one
	// PushOnce, and restart (relay only) kills the sender with its frame
	// frozen and brings it back from disk.
	script := func(t *testing.T, c *cutChecker, feed func(round int), push func() error, restart func()) {
		t.Helper()
		pushOK := func() {
			t.Helper()
			if err := push(); err != nil {
				t.Fatal(err)
			}
		}
		round := 0
		next := func() { round++; feed(round) }
		for range 3 { // deltas
			next()
			pushOK()
		}
		pushOK() // heartbeat
		c.next.failN = 99
		next()
		if err := push(); !errors.Is(err, ErrPushFailed) {
			t.Fatalf("push through an outage: %v, want ErrPushFailed", err)
		}
		next()
		c.next.failN = 0
		pushOK() // the frozen frame, retried
		pushOK() // the outage's traffic
		c.next.agg = newTestAggregator(t, AggregatorConfig{})
		next()
		pushOK() // resync, then a full frame
		next()
		pushOK()
		if restart != nil {
			c.next.failN = 99
			next()
			if err := push(); !errors.Is(err, ErrPushFailed) {
				t.Fatalf("push before the restart: %v, want ErrPushFailed", err)
			}
			restart()
			c.next.failN = 0
			pushOK() // the restored frame, retried
			next()
			pushOK()
			next()
			pushOK()
		}
		want := 8
		if restart != nil {
			want = 11
		}
		if c.checked != want {
			t.Fatalf("checked %d data frames, want %d", c.checked, want)
		}
		got, err := c.next.agg.SnapshotBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, marshalState(t, c.state())) {
			t.Fatal("the root diverged from the sender")
		}
	}
	for _, tc := range []struct {
		name string
		spec salsa.Spec
	}{{"agent", testSpec()}, {"epoch-agent", salsa.EpochShardedBy(testSpec(), 2)}} {
		t.Run(tc.name, func(t *testing.T) {
			c := &cutChecker{t: t, next: &directTransport{agg: newTestAggregator(t, AggregatorConfig{})}}
			ag := newTestAgent(t, AgentConfig{ID: "edge", Spec: tc.spec, Transport: c, MaxAttempts: 2})
			c.state = func() salsa.Sketch {
				core, err := salsa.DeltaCore(ag.Sketch())
				if err != nil {
					t.Fatal(err)
				}
				return core
			}
			feed := func(round int) {
				for _, x := range items(round) {
					ag.Ingest(x)
				}
			}
			script(t, c, feed, func() error { return ag.PushOnce(ctx) }, nil)
		})
	}
	t.Run("relay", func(t *testing.T) {
		dir := t.TempDir()
		c := &cutChecker{t: t, next: &directTransport{agg: newTestAggregator(t, AggregatorConfig{})}}
		open := func() *Relay {
			r, err := NewRelay(RelayConfig{ID: "relay-1", Spec: testSpec(), Upstream: c, Generation: 1,
				DataDir: dir, MaxAttempts: 2, Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.RestoreError(); err != nil {
				t.Fatal(err)
			}
			c.state = func() salsa.Sketch {
				s, err := r.Agg().Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			return r
		}
		r := open()
		seq := uint64(0)
		feed := func(round int) {
			seq++
			feedRelay(t, r, "e1", 1, seq, items(round)...)
		}
		script(t, c, feed, func() error { return r.PushOnce(ctx) }, func() { r = open() })
	})
}
