package salsad

import (
	"context"
	"fmt"
	"time"

	"salsa"
)

// Transport carries frames from an agent to an aggregator. HTTPTransport
// is the production implementation; internal/faulttest substitutes a
// seeded in-process transport that injects faults deterministically.
type Transport interface {
	// Push delivers one frame and returns the aggregator's ack. A non-nil
	// error means delivery is unknown (dropped, timed out, unreachable) —
	// the frame may or may not have been applied, and the agent will
	// retry it byte-identically.
	Push(ctx context.Context, p *Push) (*Ack, error)
	// Resume fetches the aggregator's durable frontier for an agent id.
	Resume(ctx context.Context, agent string) (*ResumeInfo, error)
}

// AgentConfig configures an Agent.
type AgentConfig struct {
	// ID identifies this agent to the aggregator; contributions and
	// idempotency state are tracked per id. Required, ≤ MaxAgentIDLen.
	ID string
	// Spec is the local ingest topology: a delta-capable core (sum-merge
	// CountMin/ConservativeOf, or CountSketch), optionally wrapped in
	// EpochShardedBy for lock-free multi-goroutine ingest: writers taken
	// from Sketch() may feed the agent from other goroutines, and
	// PushOnce ships what they have flushed. Beside PushOnce, other
	// goroutines may run those writers, Advance or AutoAdvance and the
	// epoch layer's queries, because a cut copies the view under the view
	// lock; Ingest and the Agent's own methods stay on PushOnce's
	// goroutine. Required.
	Spec salsa.Spec
	// Transport delivers frames. Required.
	Transport Transport
	// Generation is this incarnation's generation number; it must exceed
	// every generation a prior incarnation of the same id used. Zero
	// means 1 (a first launch).
	Generation uint64
	// StartCursor is the upstream position ingest resumes from (the
	// cursor a restarting agent got from Resume). Zero for a first launch.
	// The live sketch holds only what is ingested from here on, so that
	// is all the full frame answering a resync can resend.
	StartCursor uint64
	// MaxAttempts bounds the delivery attempts of one PushOnce call;
	// zero means 4.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the exponential retry backoff:
	// attempt n sleeps jittered min(BackoffCap, BackoffBase·2ⁿ). Zero
	// means 50ms / 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JitterSeed seeds the backoff jitter source. Zero (the default)
	// draws a crypto-random seed, so a fleet of agents restarted together
	// spreads its retries instead of thundering in lockstep. A non-zero
	// seed makes the backoff schedule an exact pure function of the seed —
	// the deterministic fault harness passes explicit seeds so replays
	// reproduce backoff timing bit-for-bit.
	JitterSeed uint64
	// Sleep is called between retries; nil means time.Sleep. Injectable
	// so the fault harness runs on virtual time.
	Sleep func(time.Duration)
	// Candidates, when non-nil, supplies local heavy-hitter candidate
	// items to attach to data frames (at most MaxPushCandidates are
	// sent).
	Candidates func() []uint64
}

// Agent ingests a local stream and ships delta envelopes to an
// aggregator. It is not safe for concurrent use; run one goroutine per
// Agent (the sketch underneath may still be an EpochShardedBy topology
// whose writers the caller drives separately — PushOnce cuts an epoch
// before snapshotting).
type Agent struct {
	uplink // shadowN counts items
	cfg    AgentConfig
	live   salsa.Sketch
	// ingest/flush/cut/held abstract over the plain and epoch-wrapped
	// backends. held counts the items live holds: cut into the
	// delta-capable core (Drained) and flushed by a writer but not yet cut
	// (Pending). A plain sketch holds what Ingest fed it.
	ingest func(item uint64, count int64)
	flush  func()
	cut    func()
	held   func() salsa.EpochStats

	frontier uint64 // upstream cursor: StartCursor + items ingested
}

// NewAgent builds an agent. The spec is built and validated here: a
// topology that cannot ship exact deltas (no subtract kernel, max-merge,
// windows, shards, trackers) is rejected with a *salsa.DeltaError.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ID == "" || len(cfg.ID) > MaxAgentIDLen {
		return nil, &ConfigError{Field: "ID", Reason: fmt.Sprintf("agent id %q must be 1..%d bytes", cfg.ID, MaxAgentIDLen)}
	}
	if cfg.Spec == nil {
		return nil, &ConfigError{Field: "Spec", Reason: "agent needs a Spec"}
	}
	if cfg.Transport == nil {
		return nil, &ConfigError{Field: "Transport", Reason: "agent needs a Transport"}
	}
	built, err := salsa.Build(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if err := salsa.DeltaCapable(built); err != nil {
		return nil, err
	}
	a := &Agent{cfg: cfg, live: built, frontier: cfg.StartCursor}
	a.setup(cfg.Spec, cfg.Transport, max(cfg.Generation, 1), cfg.MaxAttempts,
		cfg.BackoffBase, cfg.BackoffCap, cfg.JitterSeed, cfg.Sleep)
	// An epoch topology ingests through one writer and cuts an epoch
	// before each snapshot; a plain sketch ingests directly.
	if e, ok := built.(epochLayer); ok {
		w := e.NewWriter(0)
		a.ingest, a.flush = w.Update, w.Flush
		a.cut = func() { w.Flush(); e.Advance() }
		a.held = e.Stats
	} else {
		a.ingest = built.Update
		a.flush, a.cut = func() {}, func() {}
		a.held = func() salsa.EpochStats { return salsa.EpochStats{Drained: a.frontier - cfg.StartCursor} }
	}
	return a, nil
}

// epochLayer is the writer surface every EpochShardedBy product shares
// through its embedded *salsa.Epoch.
type epochLayer interface {
	NewWriter(batch int) *salsa.EpochWriter
	Advance()
	Stats() salsa.EpochStats
}

// Ingest adds one occurrence of item and advances the upstream cursor.
func (a *Agent) Ingest(item uint64) {
	a.ingest(item, 1)
	a.frontier++
}

// Sketch exposes the live local sketch (e.g. for local queries). Do not
// update it directly; use Ingest, or on an EpochShardedBy topology a
// writer from its NewWriter.
func (a *Agent) Sketch() salsa.Sketch { return a.live }

// Gen returns the current generation.
func (a *Agent) Gen() uint64 { return a.generation() }

// Frontier returns the upstream cursor: StartCursor plus items ingested.
func (a *Agent) Frontier() uint64 { return a.frontier }

// Stats returns delivery counters since construction, plus the live
// Pending gauge sampled at call time.
func (a *Agent) Stats() AgentStats {
	s := a.deliveryStats()
	s.Pending = a.held().Pending
	return s
}

// Synced reports whether everything ingested so far, and everything an
// epoch topology's writers have flushed, has been acknowledged by the
// aggregator: no frozen frame in flight and no unshipped traffic.
func (a *Agent) Synced() bool {
	a.flush()
	st := a.held()
	return a.synced(st.Drained + st.Pending)
}

// PushOnce ships the agent's state forward by (at most) one frame: it
// cuts a delta of everything ingested since the last acknowledged
// snapshot (or retries the frozen in-flight frame byte-identically),
// delivers it with exponential backoff and jitter under ctx's deadline,
// and follows a resync demand with a full-state snapshot. With nothing to
// ship it sends a heartbeat to renew the lease.
//
// On failure the frame stays frozen — the next PushOnce retries it — and
// the error wraps ErrPushFailed. State buffered through an outage is one
// frame plus the live sketch: O(sketch), never O(outage).
func (a *Agent) PushOnce(ctx context.Context) error { return a.deliver(ctx, a) }

// progress cuts an epoch and reports the items the core now holds.
func (a *Agent) progress() (uint64, Push) {
	a.cut()
	return a.held().Drained, Push{Agent: a.cfg.ID, Cursor: a.frontier}
}

// state hands over the live sketch. On an epoch topology that is the
// epoch layer, whose view CopyInto copies under the view lock, so an
// Advance beside PushOnce cannot tear the cut. It counts the items the
// core holds before the uplink copies the core, so a drain in between
// shows up in the next cut.
func (a *Agent) state() (salsa.Sketch, uint64, Push, error) {
	n := a.held().Drained
	return a.live, n, Push{Agent: a.cfg.ID, Cursor: a.frontier, Candidates: a.candidates()}, nil
}

// beforeSend has nothing to do: an agent keeps no durable state, and a
// restarted one rejoins under a fresh generation.
func (a *Agent) beforeSend() error { return nil }

func (a *Agent) candidates() []uint64 {
	if a.cfg.Candidates == nil {
		return nil
	}
	c := a.cfg.Candidates()
	if len(c) > MaxPushCandidates {
		c = c[:MaxPushCandidates]
	}
	return c
}

// Resume fetches the aggregator's durable frontier for an agent id and
// derives the config a restarted incarnation should run with: the next
// free generation and the upstream cursor to re-ingest from.
func Resume(ctx context.Context, t Transport, id string) (gen, cursor uint64, err error) {
	info, err := t.Resume(ctx, id)
	if err != nil {
		return 0, 0, err
	}
	return info.Gen + 1, info.Cursor, nil
}
