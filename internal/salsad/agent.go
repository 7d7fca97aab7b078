package salsad

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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
	// EpochShardedBy for lock-free multi-goroutine ingest. Required.
	Spec salsa.Spec
	// Transport delivers frames. Required.
	Transport Transport
	// Generation is this incarnation's generation number; it must exceed
	// every generation a prior incarnation of the same id used. Zero
	// means 1 (a first launch).
	Generation uint64
	// StartCursor is the upstream position ingest resumes from (the
	// cursor a restarting agent got from Resume). Zero for a first launch.
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
	// Replay, when non-nil, re-ingests the upstream source from the given
	// cursor (calling Agent.Ingest for each item). The agent invokes it
	// during a resync when its live sketch does not cover the full
	// history (StartCursor > 0), rebuilding complete state from a
	// replayable upstream. When nil, resync ships whatever the live
	// sketch holds (documented best effort).
	Replay func(fromCursor uint64)
	// Candidates, when non-nil, supplies local heavy-hitter candidate
	// items to attach to data frames (at most MaxPushCandidates are
	// sent).
	Candidates func() []uint64
}

// ErrPushFailed wraps the last transport error after MaxAttempts
// deliveries all failed. The frame stays frozen and is retried — still
// byte-identical — by the next PushOnce.
var ErrPushFailed = errors.New("salsad: push not acknowledged")

// Agent ingests a local stream and ships delta envelopes to an
// aggregator. It is not safe for concurrent use; run one goroutine per
// Agent (the sketch underneath may still be an EpochShardedBy topology
// whose writers the caller drives separately — PushOnce cuts an epoch
// before snapshotting).
type Agent struct {
	cfg  AgentConfig
	live salsa.Sketch
	// ingest/cut/core/pending abstract over the plain and epoch-wrapped
	// backends.
	ingest  func(item uint64, count int64)
	cut     func()
	core    func() salsa.Sketch
	pending func() uint64

	// shadow is the last acknowledged snapshot: everything the aggregator
	// has confirmed. The next delta is live − shadow.
	shadow  salsa.Sketch
	shadowN uint64 // items covered by shadow

	// frame is the frozen in-flight push, encoded once when it is cut: it
	// is never rewritten, so retries are byte-identical and sequence-number
	// dedup is exact. frameState/frameN are the snapshot the shadow
	// advances to when the frame is acked.
	frame      *Push
	frameState salsa.Sketch
	frameN     uint64

	gen      uint64
	seq      uint64
	ingestN  uint64 // items ingested this incarnation's lifetime
	frontier uint64 // upstream cursor: StartCursor + items ingested
	fedFrom  uint64 // upstream cursor live history starts at

	rng   *rand.Rand
	sleep func(time.Duration)
	stats AgentStats
}

// AgentStats counts delivery outcomes since construction.
type AgentStats struct {
	// FramesAcked counts data frames acknowledged (applied or duplicate).
	FramesAcked uint64 `json:"framesAcked"`
	// Heartbeats counts acknowledged heartbeat frames.
	Heartbeats uint64 `json:"heartbeats"`
	// Attempts counts transport deliveries, including retries.
	Attempts uint64 `json:"attempts"`
	// Retries counts attempts beyond the first per frame — each one sat
	// behind a jittered backoff sleep.
	Retries uint64 `json:"retries"`
	// Resyncs counts full-state resynchronizations performed.
	Resyncs uint64 `json:"resyncs"`
	// WireBytes sums the encoded size of every attempted frame.
	WireBytes uint64 `json:"wireBytes"`
	// Pending is the epoch ingest layer's bounded-staleness gauge: items
	// accepted by writers but not yet drained into the read view. Always
	// 0 for plain (non-epoch) topologies.
	Pending uint64 `json:"pending"`
}

// NewAgent builds an agent. The spec is built and validated here: a
// topology that cannot ship exact deltas (no subtract kernel, max-merge,
// windows, shards, trackers) is rejected with a *salsa.DeltaError.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.ID == "" || len(cfg.ID) > MaxAgentIDLen {
		return nil, &ConfigError{Field: "ID", Reason: fmt.Sprintf("agent id %q must be 1..%d bytes", cfg.ID, MaxAgentIDLen)}
	}
	if cfg.Spec == nil || cfg.Transport == nil {
		return nil, &ConfigError{Field: "Spec", Reason: "agent needs a Spec and a Transport"}
	}
	if cfg.Generation == 0 {
		cfg.Generation = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 2 * time.Second
	}
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = cryptoSeed()
	}
	a := &Agent{
		cfg:      cfg,
		gen:      cfg.Generation,
		frontier: cfg.StartCursor,
		fedFrom:  cfg.StartCursor,
		rng:      rand.New(rand.NewSource(int64(seed))),
		sleep:    cfg.Sleep,
	}
	if a.sleep == nil {
		a.sleep = time.Sleep
	}
	if err := a.buildLive(); err != nil {
		return nil, err
	}
	return a, nil
}

// buildLive realizes the spec and wires the ingest/cut/core hooks for its
// concrete type. Also called to rebuild from scratch during a replaying
// resync.
func (a *Agent) buildLive() error {
	built, err := salsa.Build(a.cfg.Spec)
	if err != nil {
		return err
	}
	if err := salsa.DeltaCapable(built); err != nil {
		return err
	}
	a.live = built
	switch s := built.(type) {
	case *salsa.EpochCountMin:
		w := s.NewWriter(0)
		a.ingest = w.Update
		a.cut = func() { w.Flush(); s.Advance() }
		a.core = func() salsa.Sketch { return s.View() }
		a.pending = s.Pending
	case *salsa.EpochCountSketch:
		w := s.NewWriter(0)
		a.ingest = w.Update
		a.cut = func() { w.Flush(); s.Advance() }
		a.core = func() salsa.Sketch { return s.View() }
		a.pending = s.Pending
	case *salsa.CountMin:
		a.ingest = s.Update
		a.cut = func() {}
		a.core = func() salsa.Sketch { return s }
		a.pending = func() uint64 { return 0 }
	case *salsa.CountSketch:
		a.ingest = s.Update
		a.cut = func() {}
		a.core = func() salsa.Sketch { return s }
		a.pending = func() uint64 { return 0 }
	default:
		// DeltaCapable already screened these; kept for defense.
		return fmt.Errorf("salsad: unsupported agent topology %T", built)
	}
	return nil
}

// Ingest adds one occurrence of item and advances the upstream cursor.
func (a *Agent) Ingest(item uint64) {
	a.ingest(item, 1)
	a.ingestN++
	a.frontier++
}

// IngestCount adds count occurrences of item as one upstream record.
func (a *Agent) IngestCount(item uint64, count int64) {
	a.ingest(item, count)
	a.ingestN++
	a.frontier++
}

// Sketch exposes the live local sketch (e.g. for local queries). Do not
// mutate it directly; use Ingest.
func (a *Agent) Sketch() salsa.Sketch { return a.live }

// Gen returns the current generation.
func (a *Agent) Gen() uint64 { return a.gen }

// Frontier returns the upstream cursor: StartCursor plus items ingested.
func (a *Agent) Frontier() uint64 { return a.frontier }

// Stats returns delivery counters since construction, plus the live
// Pending gauge sampled at call time.
func (a *Agent) Stats() AgentStats {
	s := a.stats
	s.Pending = a.pending()
	return s
}

// Synced reports whether everything ingested so far has been acknowledged
// by the aggregator: no frozen frame in flight and no unshipped traffic.
func (a *Agent) Synced() bool {
	return a.frame == nil && a.ingestN == a.shadowN
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
func (a *Agent) PushOnce(ctx context.Context) error {
	if a.frame == nil {
		if err := a.cutFrame(); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < a.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			a.stats.Retries++
			a.sleep(a.backoff(attempt - 1))
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrPushFailed, err)
		}
		a.stats.Attempts++
		a.stats.WireBytes += uint64(len(a.frame.wire))
		ack, err := a.cfg.Transport.Push(ctx, a.frame)
		if err != nil {
			lastErr = err
			continue
		}
		switch ack.Status {
		case StatusApplied, StatusDuplicate:
			a.commitFrame()
			return nil
		case StatusResync:
			if err := a.prepareResync(ack); err != nil {
				return err
			}
			lastErr = errors.New("resynchronizing")
			continue // deliver the freshly cut full frame
		default:
			lastErr = fmt.Errorf("unknown ack status %q", ack.Status)
		}
	}
	return fmt.Errorf("%w: %s gen %d seq %d: %w",
		ErrPushFailed, a.cfg.ID, a.frame.Gen, a.frame.Seq, lastErr)
}

// backoff returns the jittered exponential delay before retry n (0-based):
// uniformly in [d/2, d) for d = min(cap, base·2ⁿ).
func (a *Agent) backoff(n int) time.Duration {
	d := a.cfg.BackoffBase << uint(n)
	if d <= 0 || d > a.cfg.BackoffCap {
		d = a.cfg.BackoffCap
	}
	half := d / 2
	return half + time.Duration(a.rng.Int63n(int64(half)+1))
}

// cutFrame freezes the next frame: a delta of everything since the
// acknowledged shadow, or a heartbeat when nothing changed.
func (a *Agent) cutFrame() error {
	a.cut()
	if a.ingestN == a.shadowN {
		return a.freezeFrame(&Push{
			Agent:  a.cfg.ID,
			Gen:    a.gen,
			Seq:    a.seq,
			Cursor: a.frontier,
			Flags:  FlagHeartbeat,
		}, nil, a.shadowN)
	}
	cur, delta, err := a.snapshotPair()
	if err != nil {
		return err
	}
	if a.shadow != nil {
		if err := salsa.SubtractInto(delta, a.shadow); err != nil {
			return err
		}
	}
	env, err := salsa.Marshal(delta)
	if err != nil {
		return err
	}
	return a.freezeFrame(&Push{
		Agent:      a.cfg.ID,
		Gen:        a.gen,
		Seq:        a.seq + 1,
		Cursor:     a.frontier,
		Candidates: a.candidates(),
		Envelope:   env,
	}, cur, a.ingestN)
}

// freezeFrame makes p the in-flight frame and encodes it once; state and
// n are the snapshot the shadow advances to when p is acknowledged.
func (a *Agent) freezeFrame(p *Push, state salsa.Sketch, n uint64) error {
	if err := p.freeze(); err != nil {
		return err
	}
	a.frame, a.frameState, a.frameN = p, state, n
	return nil
}

// snapshotPair marshals the live core once and decodes it twice: a
// snapshot to advance the shadow to, and a scratch copy the delta is
// computed in.
func (a *Agent) snapshotPair() (cur, scratch salsa.Sketch, err error) {
	core := a.core()
	blob, err := salsa.Marshal(core)
	if err != nil {
		return nil, nil, err
	}
	if cur, err = salsa.Unmarshal(blob); err != nil {
		return nil, nil, err
	}
	if scratch, err = salsa.Unmarshal(blob); err != nil {
		return nil, nil, err
	}
	return cur, scratch, nil
}

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

// commitFrame advances past an acknowledged frame.
func (a *Agent) commitFrame() {
	if a.frame.Heartbeat() {
		a.stats.Heartbeats++
	} else {
		a.seq = a.frame.Seq
		a.shadow = a.frameState
		a.shadowN = a.frameN
		a.stats.FramesAcked++
	}
	a.frame, a.frameState = nil, nil
}

// prepareResync reacts to a StatusResync ack: the aggregator has no
// usable state for this agent (it restarted, or this generation is
// burned). The agent moves to a fresh generation and cuts a full-state
// snapshot that replaces everything the aggregator may still hold. If the
// live sketch does not cover the full history (this incarnation resumed
// mid-stream) and a Replay hook is configured, the history is rebuilt
// from the replayable upstream first.
func (a *Agent) prepareResync(ack *Ack) error {
	a.stats.Resyncs++
	if ack.Gen > a.gen {
		a.gen = ack.Gen
	}
	a.gen++
	a.seq = 0
	a.frame, a.frameState = nil, nil
	a.shadow, a.shadowN = nil, 0
	if a.fedFrom > 0 && a.cfg.Replay != nil {
		// Rebuild complete history: fresh sketch, replay from origin.
		if err := a.buildLive(); err != nil {
			return err
		}
		a.ingestN, a.frontier, a.fedFrom = 0, 0, 0
		a.cfg.Replay(0)
	}
	a.cut()
	cur, _, err := a.snapshotPair()
	if err != nil {
		return err
	}
	env, err := salsa.Marshal(cur)
	if err != nil {
		return err
	}
	return a.freezeFrame(&Push{
		Agent:      a.cfg.ID,
		Gen:        a.gen,
		Seq:        1,
		Cursor:     a.frontier,
		Flags:      FlagFull,
		Candidates: a.candidates(),
		Envelope:   env,
	}, cur, a.ingestN)
}

// cryptoSeed draws a random jitter seed from the OS entropy source. If
// that fails (it essentially cannot on supported platforms) it falls back
// to a fixed odd constant — jitter degrades, correctness does not depend
// on it.
func cryptoSeed() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
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
