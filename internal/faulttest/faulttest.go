// Package faulttest is the proof spine of the salsad protocol: a seeded,
// deterministic, in-process fault-injection harness. A Transport wraps an
// Aggregator and — driven entirely by one PRNG seed — drops frames,
// duplicates them, loses acks after delivery, holds frames back and
// releases them out of order later, and severs the link outright. A
// Cluster drives several Agents over that transport from recorded traces,
// crash-restarts them (and the aggregator) mid-run, and finally asserts
// convergence: once the faults heal and every agent reports Synced, the
// aggregator's answer must match a no-fault reference — byte-identically
// for the backends whose merges are counter-exact.
//
// Every schedule is a pure function of the seed: log the seed, replay the
// failure.
//
//salsa:deterministic
package faulttest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// Plan sets the per-frame fault probabilities of a Transport. All
// randomness flows from Seed; a zero Plan (seed 0, all probabilities 0)
// is a perfect network.
type Plan struct {
	// Seed drives every fault decision. Same seed, same schedule.
	Seed int64
	// Drop is the probability a frame vanishes before the aggregator.
	Drop float64
	// Dup is the probability a delivered frame arrives a second time.
	Dup float64
	// AckLoss is the probability the frame is applied but the ack is lost
	// on the way back — the canonical cause of retried duplicates.
	AckLoss float64
	// Delay is the probability a frame is held in the network and
	// released during some later delivery — arriving out of order.
	Delay float64
}

// TransportStats counts injected faults, for assertions that a schedule
// actually exercised what it claims to.
type TransportStats struct {
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	AcksLost   uint64
	Delayed    uint64
	Released   uint64
	Partition  uint64 // frames refused while partitioned
	// FullFrames counts delivered full-state (FlagFull) data frames — the
	// expensive resync traffic. Recovery-cost assertions bound it: a
	// durable restart must add zero, a volatile restart O(agents).
	FullFrames uint64
}

// Transport is a salsad.Transport that injects faults deterministically.
// Frames cross a real Encode/DecodePush cycle on every delivery, so the
// harness exercises the full wire path, and held frames are re-decoded at
// release time — a late duplicate is an independent copy, exactly as on a
// real network.
type Transport struct {
	mu          sync.Mutex
	agg         *salsad.Aggregator
	rng         *rand.Rand
	plan        Plan
	partitioned bool
	held        [][]byte // encoded frames in flight inside the "network"
	stats       TransportStats
}

// NewTransport wraps an aggregator in a faulty network.
func NewTransport(agg *salsad.Aggregator, plan Plan) *Transport {
	return &Transport{agg: agg, rng: rand.New(rand.NewSource(plan.Seed)), plan: plan}
}

// Partition severs (or restores) the agent↔aggregator link. Frames held
// in flight stay held until delivery resumes.
func (t *Transport) Partition(on bool) {
	t.mu.Lock()
	t.partitioned = on
	t.mu.Unlock()
}

// SwapAggregator points the transport at a replacement aggregator — the
// old one "crashed". Frames still held in the network will be released
// into the new instance, exactly like packets outliving a server restart.
func (t *Transport) SwapAggregator(agg *salsad.Aggregator) {
	t.mu.Lock()
	t.agg = agg
	t.mu.Unlock()
}

// Stats returns fault counters since construction.
func (t *Transport) Stats() TransportStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// errNet is the transport's "delivery unknown" failure.
type errNet string

func (e errNet) Error() string { return "faulttest: " + string(e) }

// Push implements salsad.Transport.
func (t *Transport) Push(_ context.Context, p *salsad.Push) (*salsad.Ack, error) {
	enc, err := p.Encode()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.partitioned {
		t.stats.Partition++
		return nil, errNet("partitioned")
	}
	// The network may first release frames it was holding — they arrive
	// before (and therefore out of order with) the current push.
	t.releaseSomeLocked()

	switch {
	case t.rng.Float64() < t.plan.Drop:
		t.stats.Dropped++
		return nil, errNet("dropped")
	case t.rng.Float64() < t.plan.Delay:
		t.stats.Delayed++
		t.held = append(t.held, enc)
		return nil, errNet("delayed")
	}
	ack, err := t.deliverLocked(enc)
	if err != nil {
		return nil, err
	}
	if t.rng.Float64() < t.plan.Dup {
		t.stats.Duplicated++
		t.deliverLocked(enc)
	}
	if t.rng.Float64() < t.plan.AckLoss {
		t.stats.AcksLost++
		return nil, errNet("ack lost")
	}
	return ack, nil
}

// Resume implements salsad.Transport. Resume calls ride the same
// partition as pushes.
func (t *Transport) Resume(_ context.Context, agent string) (*salsad.ResumeInfo, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.partitioned {
		t.stats.Partition++
		return nil, errNet("partitioned")
	}
	info := t.agg.Resume(agent)
	return &info, nil
}

// deliverLocked carries one encoded frame across the wire path into the
// aggregator, then gives a durable aggregator its persistence tick — the
// same MaybePersist call the HTTP handler makes after an applied push.
func (t *Transport) deliverLocked(enc []byte) (*salsad.Ack, error) {
	p, err := salsad.DecodePush(enc, t.agg.MaxEnvelopeBytes())
	if err != nil {
		return nil, err
	}
	t.stats.Delivered++
	if p.Full() && !p.Heartbeat() {
		t.stats.FullFrames++
	}
	ack, err := t.agg.ApplyPush(p)
	if err == nil && ack.Status == salsad.StatusApplied {
		t.agg.MaybePersist() //nolint:errcheck // counted in aggregator stats
	}
	return ack, err
}

// releaseSomeLocked lets each held frame escape the network with
// probability ½; their acks go nowhere (the original sender already gave
// up on them).
func (t *Transport) releaseSomeLocked() {
	kept := t.held[:0]
	for _, enc := range t.held {
		if t.rng.Float64() < 0.5 {
			t.stats.Released++
			t.deliverLocked(enc)
		} else {
			kept = append(kept, enc)
		}
	}
	t.held = kept
}

// Heal restores the link and flushes every held frame into the
// aggregator. After Heal the network is perfect (probabilities still
// apply to new frames; call with a zero Plan for a truly clean tail).
func (t *Transport) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitioned = false
	for _, enc := range t.held {
		t.stats.Released++
		t.deliverLocked(enc)
	}
	t.held = nil
}

// Quiet disables all fault probabilities (the partition state and held
// frames are untouched — pair with Heal for a clean network).
func (t *Transport) Quiet() {
	t.mu.Lock()
	t.plan.Drop, t.plan.Dup, t.plan.AckLoss, t.plan.Delay = 0, 0, 0, 0
	t.mu.Unlock()
}

// Member is one edge agent plus its durable upstream trace. The trace is
// the replayable source of truth: a crash loses the in-memory sketch but
// never the trace, and the cursor protocol re-reads it.
type Member struct {
	ID    string
	Trace []uint64
	Agent *salsad.Agent
	// fed is the upstream frontier: how many trace items the source has
	// produced so far. A restart re-ingests [cursor, fed) — items the
	// dead incarnation consumed but never got acknowledged.
	fed int
}

// Cluster is a set of members pushing to one aggregator through one
// faulty transport.
type Cluster struct {
	Spec      salsa.Spec // aggregator core topology
	AgentSpec salsa.Spec // agent ingest topology (may be epoch-wrapped)
	Transport *Transport
	Agg       *salsad.Aggregator
	Members   []*Member
	// DataDir/SnapshotEvery make the aggregator durable: CrashAggregator
	// then restarts it from its snapshot directory instead of empty.
	DataDir       string
	SnapshotEvery int
	seed          int64
}

// NewCluster builds an aggregator, a faulty transport, and n members with
// the given traces.
func NewCluster(spec, agentSpec salsa.Spec, traces [][]uint64, plan Plan) (*Cluster, error) {
	return NewDurableCluster(spec, agentSpec, traces, plan, "", 0)
}

// NewDurableCluster is NewCluster with a durable aggregator: its table is
// snapshotted under dataDir every snapshotEvery applied frames (plus the
// transport's per-apply MaybePersist tick) and CrashAggregator restarts
// it from disk. Empty dataDir means volatile, exactly NewCluster.
func NewDurableCluster(spec, agentSpec salsa.Spec, traces [][]uint64, plan Plan, dataDir string, snapshotEvery int) (*Cluster, error) {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{
		Spec: spec, DataDir: dataDir, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		Spec:          spec,
		AgentSpec:     agentSpec,
		Transport:     NewTransport(agg, plan),
		Agg:           agg,
		DataDir:       dataDir,
		SnapshotEvery: snapshotEvery,
		seed:          plan.Seed,
	}
	for i, trace := range traces {
		m := &Member{ID: fmt.Sprintf("edge-%02d", i), Trace: trace}
		if err := c.startMember(m, 0, 0); err != nil {
			return nil, err
		}
		c.Members = append(c.Members, m)
	}
	return c, nil
}

// startMember builds (or rebuilds) a member's agent at the given
// generation and cursor; Crash re-ingests the durable trace from there. The
// jitter seed is derived from the plan seed and the member id, so backoff
// schedules are a pure function of the plan — never crypto-seeded inside
// the deterministic harness.
func (c *Cluster) startMember(m *Member, gen, cursor uint64) error {
	ag, err := salsad.NewAgent(salsad.AgentConfig{
		ID:          m.ID,
		Spec:        c.AgentSpec,
		Transport:   c.Transport,
		Generation:  gen,
		StartCursor: cursor,
		MaxAttempts: 2, // the harness pumps rounds; keep each round short
		JitterSeed:  jitterSeed(c.seed, m.ID),
		Sleep:       func(time.Duration) {},
	})
	if err != nil {
		return err
	}
	m.Agent = ag
	return nil
}

// jitterSeed derives a per-node backoff seed from the plan seed and the
// node id (FNV-1a over both, forced non-zero so the agent never falls
// back to crypto seeding).
func jitterSeed(planSeed int64, id string) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(b byte) { h ^= uint64(b); h *= 0x100000001b3 }
	for i := 0; i < 8; i++ {
		mix(byte(uint64(planSeed) >> (8 * i)))
	}
	for i := 0; i < len(id); i++ {
		mix(id[i])
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Feed ingests the next n trace items into the member's live sketch.
func (m *Member) Feed(n int) {
	end := m.fed + n
	if end > len(m.Trace) {
		end = len(m.Trace)
	}
	for _, x := range m.Trace[m.fed:end] {
		m.Agent.Ingest(x)
	}
	m.fed = end
}

// Crash kills the member's in-memory incarnation and restarts it via the
// Resume protocol: the new incarnation gets a fresh generation and
// re-ingests the trace from the aggregator's cursor through the frontier
// the dead process had consumed.
func (c *Cluster) Crash(ctx context.Context, m *Member) error {
	gen, cursor, err := salsad.Resume(ctx, c.Transport, m.ID)
	if err != nil {
		return err
	}
	if err := c.startMember(m, gen, cursor); err != nil {
		return err
	}
	for _, x := range m.Trace[cursor:m.fed] {
		m.Agent.Ingest(x)
	}
	return nil
}

// CrashAggregator kills the aggregator process: a volatile cluster gets
// an empty replacement (agents discover it through resync acks), a
// durable one restarts from its snapshot directory — the kill -9 +
// restart the zero-resync guarantee is about.
func (c *Cluster) CrashAggregator() error {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{
		Spec: c.Spec, DataDir: c.DataDir, SnapshotEvery: c.SnapshotEvery,
	})
	if err != nil {
		return err
	}
	c.Agg = agg
	c.Transport.SwapAggregator(agg)
	return nil
}

// Pump runs one push round: every member attempts one PushOnce; transport
// errors are the faulty network doing its job and are swallowed.
func (c *Cluster) Pump(ctx context.Context) {
	for _, m := range c.Members {
		m.Agent.PushOnce(ctx) //nolint:errcheck // faults are expected
	}
}

// Converge heals the network and pumps until every member is Synced,
// bounded by maxRounds. It returns the number of rounds used and whether
// the cluster converged.
func (c *Cluster) Converge(ctx context.Context, maxRounds int) (int, bool) {
	c.Transport.Quiet()
	c.Transport.Heal()
	for round := 1; round <= maxRounds; round++ {
		c.Pump(ctx)
		if c.Synced() {
			return round, true
		}
	}
	return maxRounds, false
}

// Synced reports whether every member has everything acknowledged.
func (c *Cluster) Synced() bool {
	for _, m := range c.Members {
		if !m.Agent.Synced() {
			return false
		}
	}
	return true
}

// ReferenceBytes is the no-fault sequential reference: one sketch of the
// aggregator's topology fed every member's consumed trace prefix in
// member order, marshaled. For counter-exact sum-merge backends a
// quiesced aggregator must produce these bytes no matter what the network
// did.
func (c *Cluster) ReferenceBytes() ([]byte, error) {
	ref, err := salsa.Build(c.Spec)
	if err != nil {
		return nil, err
	}
	core, err := salsa.DeltaCore(ref)
	if err != nil {
		return nil, err
	}
	for _, m := range c.Members {
		for _, x := range m.Trace[:m.fed] {
			core.Update(x, 1)
		}
	}
	return salsa.Marshal(core)
}

// ExactCounts returns the true frequency of every item across all
// members' consumed prefixes — the ground truth value-equivalence checks
// compare against.
func (c *Cluster) ExactCounts() map[uint64]int64 {
	exact := make(map[uint64]int64)
	for _, m := range c.Members {
		for _, x := range m.Trace[:m.fed] {
			exact[x]++
		}
	}
	return exact
}
