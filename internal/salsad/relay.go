package salsad

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"salsa"
)

// Relay is an intermediate fan-in tier: downstream it is an Aggregator
// (agents — or deeper relays — push delta frames into its table), and
// upstream it behaves like an Agent whose "stream" is that table. It hands
// the merged table to the same sending code edge agents run (uplink: the
// cut into heartbeat, delta or full snapshot, the frozen frame, (gen,
// seq), backoff and resync), so trees compose to arbitrary depth with no
// new wire format — relay frames only add FlagRelay and a Depth byte.
//
// Durability follows a strict ordering rule: a durable relay persists
// every freshly cut data frame — frame bytes, pre-cut shadow, and the
// post-cut snapshot — BEFORE its first transmission, and refuses to send
// if that persist fails. Restoring to a state older than a transmitted
// frame would otherwise cut a different delta under an already-used
// sequence number, which upstream dedup would silently drop. With the
// rule in place a crash at any point is safe: either the frozen frame is
// on disk (restart retries it byte-identically; upstream acks it applied
// or duplicate) or it was never sent. When the newest snapshot fails
// validation and an older one is loaded instead, the persisted frontier
// can no longer be trusted for dedup, so the relay burns the persisted
// generation and rejoins through the full resync path.
type Relay struct {
	// uplink ships the merged table; shadowN counts applied downstream
	// frames, and gen 0 is the "resolve a fresh generation from upstream
	// before the first push" sentinel.
	uplink
	cfg RelayConfig
	agg *Aggregator
	// persisted is the frozen frame known to be on disk. Only the
	// goroutine running PushOnce touches it.
	persisted *Push
}

// RelayConfig configures a Relay.
type RelayConfig struct {
	// ID identifies this relay to its upstream aggregator. Required,
	// ≤ MaxAgentIDLen.
	ID string
	// Spec is the core sketch topology of the tree (the same spec every
	// tier runs). Required.
	Spec salsa.Spec
	// Upstream delivers this relay's merged-table frames to the next tier
	// up. Required.
	Upstream Transport
	// Generation is this incarnation's upstream generation; zero resolves
	// a fresh one from upstream (via Resume) before the first push, unless
	// a durable snapshot supplies it.
	Generation uint64
	// DataDir, when non-empty, makes the relay durable: the downstream
	// table and the upstream shipping state (generation, seq, shadow, and
	// the frozen in-flight frame) are snapshotted crash-consistently.
	DataDir string
	// SnapshotEvery persists after this many applied downstream frames;
	// zero means DefaultSnapshotEvery. Upstream data frames are always
	// persisted at cut time regardless, per the ordering rule above.
	SnapshotEvery int
	// LeaseTTL / MaxEnvelopeBytes / MaxCandidates / Now configure the
	// downstream aggregator half; see AggregatorConfig.
	LeaseTTL         time.Duration
	MaxEnvelopeBytes int
	MaxCandidates    int
	Now              func() time.Time
	// MaxAttempts / BackoffBase / BackoffCap / JitterSeed / Sleep shape
	// upstream delivery retries; see AgentConfig.
	MaxAttempts int
	BackoffBase time.Duration
	BackoffCap  time.Duration
	JitterSeed  uint64
	Sleep       func(time.Duration)
}

// NewRelay builds a relay. With a DataDir it reloads the newest valid
// snapshot: the downstream table always, and the upstream shipping state
// only when the newest snapshot itself validated (see Relay).
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.ID == "" || len(cfg.ID) > MaxAgentIDLen {
		return nil, &ConfigError{Field: "ID", Reason: fmt.Sprintf("relay id %q must be 1..%d bytes", cfg.ID, MaxAgentIDLen)}
	}
	if cfg.Spec == nil {
		return nil, &ConfigError{Field: "Spec", Reason: "relay needs a Spec"}
	}
	if cfg.Upstream == nil {
		return nil, &ConfigError{Field: "Upstream", Reason: "relay needs an Upstream transport"}
	}
	agg, err := NewAggregator(AggregatorConfig{
		Spec:             cfg.Spec,
		LeaseTTL:         cfg.LeaseTTL,
		MaxEnvelopeBytes: cfg.MaxEnvelopeBytes,
		MaxCandidates:    cfg.MaxCandidates,
		Now:              cfg.Now,
	})
	if err != nil {
		return nil, err
	}
	// Whatever a prior incarnation shipped overlaps this subtree's merged
	// state, so the first frame replaces it.
	r := &Relay{cfg: cfg, agg: agg}
	r.full = true
	r.setup(cfg.Spec, cfg.Upstream, cfg.Generation, cfg.MaxAttempts,
		cfg.BackoffBase, cfg.BackoffCap, cfg.JitterSeed, cfg.Sleep)
	agg.upstreamStats = r.Stats
	if cfg.DataDir != "" {
		upstream, skipped, err := agg.openStore(cfg.DataDir, cfg.SnapshotEvery, r.marshalState, stateKindRelay)
		if err != nil {
			return nil, err
		}
		switch {
		case agg.RestoreError() != nil || skipped > 0:
			// Either the snapshot was rejected outright, or the newest file
			// failed validation and an older one was loaded. Any frontier on
			// disk may predate frames a dead incarnation already transmitted,
			// so it must not be reused for dedup: burn the persisted
			// generation and rejoin with a fresh-generation full snapshot.
			r.restart(0)
		case len(upstream) > 0:
			if err := r.restoreUpstream(upstream); err != nil {
				agg.noteRestoreError(err)
				r.restart(0)
			}
		}
	}
	return r, nil
}

// Agg returns the downstream aggregator half: the table pushes land in
// and the handler Handler serves.
func (r *Relay) Agg() *Aggregator { return r.agg }

// RestoreError returns the typed error of a failed snapshot restore; see
// Aggregator.RestoreError.
func (r *Relay) RestoreError() error { return r.agg.RestoreError() }

// Gen returns the current upstream generation (0 until the first push of
// a fresh incarnation resolves one).
func (r *Relay) Gen() uint64 { return r.generation() }

// Stats returns upstream delivery counters since construction.
func (r *Relay) Stats() AgentStats { return r.deliveryStats() }

// Synced reports whether everything applied downstream has been
// acknowledged upstream: no frozen frame in flight and the shadow covers
// the whole table.
func (r *Relay) Synced() bool {
	applied, _ := r.agg.appliedCount()
	return r.synced(applied)
}

// PushOnce ships the relay's merged table forward by (at most) one
// upstream frame, with the same freeze/retry/resync semantics as
// Agent.PushOnce. For a durable relay a freshly cut data frame is
// persisted before its first transmission; a failed persist aborts the
// push (wrapping ErrPushFailed) and the frame is retried — persist first
// — by the next call. Calls must not overlap; Stats, Synced, Gen and
// snapshots are safe alongside one.
func (r *Relay) PushOnce(ctx context.Context) error {
	if r.gen == 0 {
		info, err := r.transport.Resume(ctx, r.cfg.ID)
		if err != nil {
			return fmt.Errorf("%w: resolving a fresh generation: %w", ErrPushFailed, err)
		}
		r.mu.Lock()
		r.gen = info.Gen + 1
		r.mu.Unlock()
	}
	return r.deliver(ctx, r)
}

// progress reports the downstream frames applied so far without folding
// the table.
func (r *Relay) progress() (uint64, Push) {
	applied, depth := r.agg.appliedCount()
	return applied, Push{Agent: r.cfg.ID, Cursor: applied, Flags: FlagRelay, Depth: byte(min(depth, 255))}
}

// state folds the downstream table atomically with the applied count it
// reflects and its heaviest candidates, and hands over the fold.
func (r *Relay) state() (salsa.Sketch, uint64, Push, error) {
	merged, applied, cands, depth, err := r.agg.upstreamCut()
	if err != nil {
		return nil, 0, Push{}, err
	}
	return merged, applied, Push{Agent: r.cfg.ID, Cursor: applied, Flags: FlagRelay,
		Depth: byte(min(depth, 255)), Candidates: cands}, nil
}

// beforeSend enforces the durability barrier: a durable relay's frozen
// data frame must be on disk before its first transmission. A no-op for
// volatile relays, heartbeats (they consume no sequence number), and
// frames already persisted, including ones restored from a snapshot.
func (r *Relay) beforeSend() error {
	if r.agg.pers == nil || r.persisted == r.frame || r.frame.Heartbeat() {
		return nil
	}
	if _, err := r.agg.Persist(); err != nil {
		return fmt.Errorf("frame not durable before transmission: %w", err)
	}
	r.persisted = r.frame
	return nil
}

// Persist writes a snapshot of the full relay state (downstream table
// plus upstream shipping state) as a new epoch; see Aggregator.Persist.
func (r *Relay) Persist() (uint64, error) {
	if r.agg.pers == nil {
		return 0, &ConfigError{Field: "DataDir", Reason: "relay is not durable; set DataDir"}
	}
	return r.agg.Persist()
}

// marshalState is the persistor's payload hook: the upstream shipping
// state captured under the relay lock, wrapped around the aggregator's
// table marshal, with the applied count that table holds. The two
// captures are not atomic with each other, but the persistor serializes
// whole persist cycles, and the cut-before-send barrier guarantees the
// newest snapshot at any transmission already contains that frame — an
// older pairing is only ever restored when the frame it lacks was never
// sent.
func (r *Relay) marshalState() ([]byte, uint64, error) {
	r.mu.Lock()
	buf := make([]byte, 0, 256)
	buf = binary.LittleEndian.AppendUint64(buf, r.gen)
	buf = binary.LittleEndian.AppendUint64(buf, r.seq)
	buf = binary.LittleEndian.AppendUint64(buf, r.shadowN)
	var err error
	if buf, err = appendOptionalSketch(buf, r.shadow); err != nil {
		r.mu.Unlock()
		return nil, 0, err
	}
	if r.frame == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, r.frameN)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.frame.wire)))
		buf = append(buf, r.frame.wire...)
		if buf, err = appendOptionalSketch(buf, r.frameState); err != nil {
			r.mu.Unlock()
			return nil, 0, err
		}
	}
	r.mu.Unlock()
	return r.agg.marshalState(stateKindRelay, buf)
}

// restoreUpstream rebuilds the upstream shipping state from a snapshot's
// upstream section. The frozen frame travels as its encoded wire bytes,
// so a restored retry is byte-identical to what the dead incarnation
// transmitted.
func (r *Relay) restoreUpstream(data []byte) error {
	fr := frameReader{data: data}
	gen, seq, shadowN := fr.u64(), fr.u64(), fr.u64()
	shadow, err := r.agg.readOptionalSketch(&fr)
	if err != nil {
		return err
	}
	var (
		frame      *Push
		frameState salsa.Sketch
		frameN     uint64
	)
	if fr.u8() == 1 {
		frameN = fr.u64()
		encLen := int(fr.u32())
		enc := fr.take(encLen)
		if enc == nil {
			return &SnapshotError{Reason: "upstream section: truncated frame"}
		}
		if frame, err = DecodePush(enc, r.agg.maxEnvelope); err != nil {
			return &SnapshotError{Reason: "upstream section: undecodable frozen frame", Err: err}
		}
		if frame.Agent != r.cfg.ID {
			return &SnapshotError{Reason: fmt.Sprintf("upstream section: frozen frame belongs to %q, this relay is %q", frame.Agent, r.cfg.ID)}
		}
		// Retries resend the persisted bytes: exactly what the dead
		// incarnation transmitted.
		frame.wire, frame.self = bytes.Clone(enc), frame
		if frameState, err = r.agg.readOptionalSketch(&fr); err != nil {
			return err
		}
	}
	if fr.err != nil || fr.pos != len(fr.data) {
		return &SnapshotError{Reason: "upstream section: truncated or oversized"}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen, r.seq, r.shadowN = gen, seq, shadowN
	r.shadow, r.full = shadow, seq == 0
	r.frame, r.frameState, r.frameN = frame, frameState, frameN
	r.persisted = frame // it came from disk
	return nil
}
