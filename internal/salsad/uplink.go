package salsad

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"salsa"
)

// ErrPushFailed wraps the last transport error after MaxAttempts
// deliveries all failed. The frame stays frozen and is retried — still
// byte-identical — by the next PushOnce.
var ErrPushFailed = errors.New("salsad: push not acknowledged")

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
	// 0 for plain (non-epoch) topologies and for relays.
	Pending uint64 `json:"pending"`
}

// uplink is the sending half of the push protocol, embedded in both Agent
// and Relay: frames numbered by (gen, seq), the acknowledged shadow, the
// cut that decides between heartbeat, delta and full snapshot, the frozen
// in-flight frame, and the loop that delivers it with jittered
// exponential backoff, commits acks and starts over after a resync
// demand. What differs between the two owners comes in through framer.
//
// Only the goroutine running PushOnce changes an uplink, and always under
// mu, so that goroutine reads the fields without mu. Other goroutines (a
// relay's gauges and snapshots) read them under mu.
type uplink struct {
	spec        salsa.Spec
	transport   Transport
	maxAttempts int
	backoffBase time.Duration
	backoffCap  time.Duration
	rng         *rand.Rand
	sleep       func(time.Duration)

	mu  sync.Mutex
	gen uint64
	seq uint64
	// shadow is the last acknowledged snapshot: everything upstream has
	// confirmed. The next delta is current − shadow. shadowN is the
	// progress it covers: items the cut sketch held for an agent,
	// downstream frames applied for a relay.
	shadow  salsa.Sketch
	shadowN uint64
	// frame is the frozen in-flight push, encoded once when it is cut: it
	// is never rewritten, so retries are byte-identical and sequence-number
	// dedup is exact. frameState/frameN are the snapshot the shadow
	// advances to when the frame is acked.
	frame      *Push
	frameState salsa.Sketch
	frameN     uint64
	// spare and scratch are sketches of the shipped core that neither the
	// shadow nor a frame refers to: the next data frame's state is copied
	// into spare, and state − shadow is cut in scratch. An ack retires the
	// shadow into spare. A cut takes them under mu and writes them outside
	// it, so a relay snapshot, which marshals shadow and frameState under
	// mu, never reads one being written.
	spare, scratch salsa.Sketch
	// full makes the next data frame a FlagFull snapshot that replaces
	// everything upstream holds for this sender. restart sets it, and so
	// does a relay from the start; an acknowledged data frame clears it.
	full  bool
	stats AgentStats
}

// framer is what an uplink's owner knows about its state. The header
// fields it fills are the ones only it knows: Agent, Cursor, FlagRelay,
// Depth and, on a data frame, Candidates.
type framer interface {
	// progress reports the progress the owner's state covers and the
	// header of a heartbeat covering it.
	progress() (uint64, Push)
	// state hands over the owner's whole state, the progress it covers
	// and the header of a data frame carrying it. The state is a sketch
	// CopyInto accepts as its source; the uplink copies it before the cut
	// returns and never keeps it.
	state() (salsa.Sketch, uint64, Push, error)
	// beforeSend runs before every transmission of the frozen frame.
	beforeSend() error
}

// setup installs the spec of the shipped state, the transport, the first
// generation and the retry settings. Zero settings take the defaults: 4
// attempts, 50ms / 2s backoff, a crypto-random jitter seed, and
// time.Sleep.
func (u *uplink) setup(spec salsa.Spec, t Transport, gen uint64, attempts int, base, ceiling time.Duration, seed uint64, sleep func(time.Duration)) {
	if attempts <= 0 {
		attempts = 4
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if ceiling <= 0 {
		ceiling = 2 * time.Second
	}
	if seed == 0 {
		seed = cryptoSeed()
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	u.spec, u.transport, u.gen = spec, t, gen
	u.maxAttempts, u.backoffBase, u.backoffCap = attempts, base, ceiling
	u.rng, u.sleep = rand.New(rand.NewSource(int64(seed))), sleep
}

// deliver ships f's state forward by (at most) one frame: it cuts the
// next frame unless one is frozen, delivers it with exponential backoff
// and jitter under ctx's deadline, and after a resync demand delivers the
// full snapshot it cuts next. On failure the frame stays frozen and the
// error wraps ErrPushFailed.
func (u *uplink) deliver(ctx context.Context, f framer) error {
	if u.currentFrame() == nil {
		if err := u.cutFrame(f); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < u.maxAttempts; attempt++ {
		if attempt > 0 {
			u.mu.Lock()
			u.stats.Retries++
			u.mu.Unlock()
			u.sleep(u.backoff(attempt - 1))
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrPushFailed, err)
		}
		if err := f.beforeSend(); err != nil {
			return fmt.Errorf("%w: %w", ErrPushFailed, err)
		}
		u.mu.Lock()
		frame := u.frame
		u.stats.Attempts++
		u.stats.WireBytes += uint64(len(frame.wire))
		u.mu.Unlock()
		ack, err := u.transport.Push(ctx, frame)
		if err != nil {
			lastErr = err
			continue
		}
		switch ack.Status {
		case StatusApplied, StatusDuplicate:
			u.commitFrame()
			return nil
		case StatusResync:
			// Upstream holds no usable state for this sender (it restarted,
			// or this generation is burned): move to a fresh generation and
			// replace everything it may still hold.
			u.mu.Lock()
			u.stats.Resyncs++
			u.mu.Unlock()
			u.restart(max(u.gen, ack.Gen) + 1)
			if err := u.cutFrame(f); err != nil {
				return err
			}
			lastErr = errors.New("resynchronizing")
			continue // deliver the freshly cut full frame
		default:
			lastErr = fmt.Errorf("unknown ack status %q", ack.Status)
		}
	}
	frame := u.currentFrame()
	return fmt.Errorf("%w: %s gen %d seq %d: %w",
		ErrPushFailed, frame.Agent, frame.Gen, frame.Seq, lastErr)
}

// backoff returns the jittered exponential delay before retry n (0-based):
// uniformly in [d/2, d) for d = min(cap, base·2ⁿ).
func (u *uplink) backoff(n int) time.Duration {
	d := u.backoffBase << uint(n)
	if d <= 0 || d > u.backoffCap {
		d = u.backoffCap
	}
	half := d / 2
	return half + time.Duration(u.rng.Int63n(int64(half)+1))
}

// cutFrame freezes the next frame from f's state: a FlagFull snapshot of
// the whole state while full is set, a heartbeat when the state covers no
// progress past the shadow, and state − shadow otherwise. The first frame
// of a generation that is not full is a plain delta holding the whole
// state: a restarted agent's new generation merges into the contribution
// the old one shipped.
//
// A data frame copies the owner's state into the spare, which becomes the
// state the shadow advances to, and once there is a shadow copies that
// into the scratch and subtracts the shadow there: one Marshal per frame,
// and no sketch allocated once the first cuts have built the spares.
func (u *uplink) cutFrame(f framer) error {
	if n, hb := f.progress(); !u.full && n == u.shadowN {
		hb.Gen, hb.Seq = u.gen, u.seq
		hb.Flags |= FlagHeartbeat
		return u.freezeFrame(hb, nil, n)
	}
	src, n, p, err := f.state()
	if err != nil {
		return err
	}
	state, err := u.take(&u.spare)
	if err != nil {
		return err
	}
	if err := salsa.CopyInto(state, src); err != nil {
		return err
	}
	cut := state
	if u.shadow != nil {
		if cut, err = u.take(&u.scratch); err != nil {
			return err
		}
		if err := salsa.CopyInto(cut, state); err != nil {
			return err
		}
		if err := salsa.SubtractInto(cut, u.shadow); err != nil {
			return err
		}
	}
	env, err := salsa.Marshal(cut)
	if err != nil {
		return err
	}
	if cut != state {
		u.mu.Lock()
		u.scratch = cut
		u.mu.Unlock()
	}
	p.Gen, p.Seq, p.Envelope = u.gen, u.seq+1, env
	if u.full {
		p.Flags |= FlagFull
	}
	return u.freezeFrame(p, state, n)
}

// take empties the spare slot *s and returns its sketch, or, when it is
// empty (the first cuts, or a cut after an error dropped the sketch), an
// empty sketch of the core the spec builds.
func (u *uplink) take(s *salsa.Sketch) (salsa.Sketch, error) {
	u.mu.Lock()
	sk := *s
	*s = nil
	u.mu.Unlock()
	if sk != nil {
		return sk, nil
	}
	built, err := salsa.Build(u.spec)
	if err != nil {
		return nil, err
	}
	return salsa.DeltaCore(built)
}

// freezeFrame makes p the in-flight frame and encodes it once; state and
// n are the snapshot the shadow advances to when p is acknowledged.
func (u *uplink) freezeFrame(p Push, state salsa.Sketch, n uint64) error {
	if err := p.freeze(); err != nil {
		return err
	}
	u.mu.Lock()
	u.frame, u.frameState, u.frameN = &p, state, n
	u.mu.Unlock()
	return nil
}

// commitFrame advances past an acknowledged frame.
func (u *uplink) commitFrame() {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.frame.Heartbeat() {
		u.stats.Heartbeats++
	} else {
		u.seq = u.frame.Seq
		u.spare = u.shadow
		u.shadow, u.shadowN = u.frameState, u.frameN
		u.full = false
		u.stats.FramesAcked++
	}
	u.frame, u.frameState = nil, nil
}

// restart begins generation gen with no shadow, no frame and seq 0; its
// first data frame is full.
func (u *uplink) restart(gen uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.gen, u.seq = gen, 0
	u.shadow, u.shadowN = nil, 0
	u.frame, u.frameState = nil, nil
	u.full = true
}

// currentFrame returns the frozen in-flight frame, or nil.
func (u *uplink) currentFrame() *Push {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.frame
}

func (u *uplink) generation() uint64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.gen
}

func (u *uplink) deliveryStats() AgentStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}

// synced reports whether no frame is in flight and the shadow covers
// progress n.
func (u *uplink) synced(n uint64) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.frame == nil && u.shadowN == n
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
