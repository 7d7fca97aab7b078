// Package salsad implements the distributed aggregation tier: edge agents
// ingest locally (through the epoch layer) and periodically push delta
// envelopes (current − shadow, via SubtractFrom) to an aggregator that
// merges them into per-agent contributions and serves cluster-wide
// snapshot, query, and heavy-hitter endpoints.
//
// The protocol is built to survive a faulty network. Pushes are idempotent
// — each carries a (generation, sequence) pair and the aggregator applies
// a frame at most once, so retried or duplicated messages never double
// count. The agent freezes the in-flight frame until it is acknowledged
// and keeps accumulating new traffic in its live sketch, so a retry is
// byte-identical (which is what makes sequence-number dedup sound) and the
// state buffered through a partition is one delta envelope — O(sketch),
// never O(outage): when the frozen frame finally lands, the next cut
// coalesces the whole outage into a single delta, because
// (c₁−shadow) ⊎ (c₂−c₁) = c₂−shadow. Crashed agents rejoin with a fresh
// generation (the aggregator retires the prior generation's contribution
// and adds the new one), agents the aggregator has no state for are told
// to resync with a full-state replacing snapshot, and leases flag agents
// that stopped reporting.
//
// The wire format is a small binary frame (magic, version, flags, ids,
// candidates) around a flate-compressed universal envelope, so the bytes
// on the wire track how much changed, not how wide the sketch is. The
// decode path is hardened: every length is bounded before any allocation
// or decompression, and an oversized envelope is reported as a typed
// *TooLargeError before salsa.Unmarshal ever sees the body.
//
// internal/faulttest proves the design: a seeded deterministic transport
// injects drops, duplicates, reorders, delays, partitions, and
// crash-restarts, and asserts that a quiesced aggregator is byte-identical
// to a no-fault sequential reference.
//
//salsa:typederrors
package salsad

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	frameMagic   uint32 = 0x44534c53 // "SLSD" little-endian
	frameVersion byte   = 1

	// FlagFull marks a full-state snapshot: the envelope is the agent's
	// complete history and replaces every prior contribution stored for
	// that agent, across all generations. Sent on resync.
	FlagFull byte = 1 << 0
	// FlagHeartbeat marks a data-free lease renewal; the frame carries no
	// envelope and does not consume a sequence number.
	FlagHeartbeat byte = 1 << 1
	// FlagRelay marks a frame pushed by a relay (an aggregator shipping
	// its merged table upstream). Relay frames carry one extra Depth byte
	// so every tier can report how deep the fan-in tree below it is.
	FlagRelay byte = 1 << 2

	flagsKnown = FlagFull | FlagHeartbeat | FlagRelay

	// MaxAgentIDLen bounds the agent identifier on the wire.
	MaxAgentIDLen = 128
	// MaxPushCandidates bounds the heavy-hitter candidate list a single
	// push may carry.
	MaxPushCandidates = 512
	// DefaultMaxEnvelopeBytes is the aggregator's default cap on the
	// decompressed envelope carried by one push.
	DefaultMaxEnvelopeBytes = 8 << 20

	// maxFrameOverhead bounds the frame bytes around the compressed
	// envelope: fixed header (incl. the optional relay depth byte) plus
	// maximal agent id and candidate list.
	maxFrameOverhead = 4 + 1 + 1 + 1 + 2 + MaxAgentIDLen + 8*3 + 2 + 8*MaxPushCandidates + 4 + 4
)

// A ConfigError reports an AgentConfig or AggregatorConfig field the
// constructors reject.
type ConfigError struct {
	// Field names the offending config field.
	Field string
	// Reason states the violated constraint.
	Reason string
}

func (e *ConfigError) Error() string { return "salsad: " + e.Reason }

// ErrBadFrame is returned when decoding bytes that are not a well-formed
// push frame.
var ErrBadFrame = errors.New("salsad: malformed push frame")

// A TooLargeError reports a push whose (decompressed) envelope exceeds the
// aggregator's configured cap. It is produced from the frame's declared
// length, before any envelope allocation, decompression, or decoding.
type TooLargeError struct {
	// Size is the length the frame declared or presented.
	Size int
	// Limit is the configured maximum.
	Limit int
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("salsad: envelope of %d bytes exceeds the %d-byte cap", e.Size, e.Limit)
}

// Push is one agent→aggregator message: a delta, full-state, or heartbeat
// frame.
type Push struct {
	// Agent identifies the pushing agent; contributions and idempotency
	// state are tracked per agent id.
	Agent string
	// Gen is the agent incarnation. A crash-restarted agent runs under a
	// fresh, strictly larger generation.
	Gen uint64
	// Seq numbers data frames 1,2,3,... within a generation. Heartbeats
	// echo the current value without consuming a number.
	Seq uint64
	// Cursor is an opaque upstream replay position: the agent's ingest
	// frontier as of this frame's cut. The aggregator stores the cursor of
	// the last applied frame and hands it back on resume, so a restarted
	// agent knows where to re-read its source from.
	Cursor uint64
	// Flags carries FlagFull / FlagHeartbeat / FlagRelay.
	Flags byte
	// Depth is the fan-in depth of the tree below the sender (0 for edge
	// agents, ≥ 1 for relays). Only encoded when FlagRelay is set.
	Depth byte
	// Candidates are heavy-hitter candidate items observed by the agent;
	// the aggregator evaluates its candidate pool against the merged
	// sketch to answer top-k queries.
	Candidates []uint64
	// Envelope is the uncompressed universal sketch envelope (nil for
	// heartbeats). It travels flate-compressed.
	Envelope []byte

	// wire is the frame's encoding once freeze has run; self is then the
	// Push itself, so a copy, whose fields may since have changed, encodes
	// afresh.
	wire []byte
	self *Push
}

// Heartbeat reports whether the frame is a data-free lease renewal.
func (p *Push) Heartbeat() bool { return p.Flags&FlagHeartbeat != 0 }

// Full reports whether the frame replaces all prior state for the agent.
func (p *Push) Full() bool { return p.Flags&FlagFull != 0 }

// Relay reports whether the frame was pushed by a relay tier.
func (p *Push) Relay() bool { return p.Flags&FlagRelay != 0 }

// Encode serializes the frame, compressing the envelope. Frames are
// deterministic: encoding the same Push yields the same bytes, which is
// what makes retried frames byte-identical on the wire.
//
// Agents and relays encode each frame once, when they freeze it, and
// Encode returns those bytes: the WireBytes count, every attempt and retry,
// and a durable relay's persisted frame share one slice. A frozen Push is
// never modified, and its bytes are read-only.
func (p *Push) Encode() ([]byte, error) {
	if p.self == p {
		return p.wire, nil
	}
	return p.encode()
}

// freeze encodes p once; from then on Encode returns those bytes.
func (p *Push) freeze() error {
	enc, err := p.encode()
	if err != nil {
		return err
	}
	p.wire, p.self = enc, p
	return nil
}

// headerLen is the encoded length of the frame up to its compressed
// envelope.
func (p *Push) headerLen() int {
	n := 4 + 1 + 1 + 2 + len(p.Agent) + 3*8 + 2 + 8*len(p.Candidates) + 4 + 4
	if p.Relay() {
		n++
	}
	return n
}

func (p *Push) encode() ([]byte, error) {
	if len(p.Agent) == 0 || len(p.Agent) > MaxAgentIDLen {
		return nil, fmt.Errorf("salsad: agent id length %d outside [1,%d]: %w", len(p.Agent), MaxAgentIDLen, ErrBadFrame)
	}
	if len(p.Candidates) > MaxPushCandidates {
		return nil, fmt.Errorf("salsad: %d candidates exceed the per-push cap %d: %w", len(p.Candidates), MaxPushCandidates, ErrBadFrame)
	}
	if p.Heartbeat() && len(p.Envelope) > 0 {
		return nil, fmt.Errorf("salsad: heartbeat frames carry no envelope: %w", ErrBadFrame)
	}
	if p.Depth != 0 && !p.Relay() {
		return nil, fmt.Errorf("salsad: depth %d on a non-relay frame: %w", p.Depth, ErrBadFrame)
	}
	var comp []byte
	if len(p.Envelope) > 0 {
		c := compressors.Get().(*compressor)
		defer compressors.Put(c)
		var err error
		if comp, err = c.compress(p.Envelope); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, p.headerLen()+len(comp))
	buf = binary.LittleEndian.AppendUint32(buf, frameMagic)
	buf = append(buf, frameVersion, p.Flags)
	if p.Relay() {
		buf = append(buf, p.Depth)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Agent)))
	buf = append(buf, p.Agent...)
	buf = binary.LittleEndian.AppendUint64(buf, p.Gen)
	buf = binary.LittleEndian.AppendUint64(buf, p.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, p.Cursor)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(p.Candidates)))
	for _, c := range p.Candidates {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Envelope)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(comp)))
	return append(buf, comp...), nil
}

// compressor is a BestSpeed flate writer kept for reuse with its output
// buffer. A new writer allocates over a megabyte; a reset one has dropped
// its whole match history, so it writes exactly the bytes a new one would.
type compressor struct {
	fw  *flate.Writer
	out bytes.Buffer
}

var compressors = sync.Pool{New: func() any {
	c := new(compressor)
	c.fw, _ = flate.NewWriter(&c.out, flate.BestSpeed) // errors only on an invalid level
	return c
}}

// compress returns the flate stream of data, held in c's buffer until c
// is used again.
func (c *compressor) compress(data []byte) ([]byte, error) {
	c.out.Reset()
	c.fw.Reset(&c.out)
	if _, err := c.fw.Write(data); err != nil {
		return nil, err
	}
	if err := c.fw.Close(); err != nil {
		return nil, err
	}
	return c.out.Bytes(), nil
}

// decompressor is a flate reader kept for reuse with its source. Resetting
// it clears every trace of the previous stream, including one a decode
// error abandoned part-way.
type decompressor struct {
	src bytes.Reader
	fr  io.ReadCloser
	one [1]byte
}

var decompressors = sync.Pool{New: func() any {
	d := new(decompressor)
	d.fr = flate.NewReader(&d.src)
	return d
}}

// inflate decompresses comp into an envelope of exactly rawLen bytes.
func (d *decompressor) inflate(comp []byte, rawLen int) ([]byte, error) {
	d.src.Reset(comp)
	defer d.src.Reset(nil) // the pool must not keep the caller's frame alive
	if err := d.fr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, ErrBadFrame
	}
	env := make([]byte, rawLen)
	if _, err := io.ReadFull(d.fr, env); err != nil {
		return nil, ErrBadFrame
	}
	// The stream must end exactly at the declared length.
	if n, err := d.fr.Read(d.one[:]); n != 0 || err != io.EOF {
		return nil, ErrBadFrame
	}
	return env, nil
}

// DecodePush parses and validates a push frame. Every length is checked
// against its bound before the corresponding allocation; a declared
// envelope size over maxEnvelope returns a *TooLargeError without
// decompressing a byte, so a hostile or corrupt push cannot balloon
// memory. The decompressed envelope is verified to match the declared
// length exactly. Decompression reuses pooled flate readers.
func DecodePush(data []byte, maxEnvelope int) (*Push, error) {
	if maxEnvelope <= 0 {
		maxEnvelope = DefaultMaxEnvelopeBytes
	}
	r := frameReader{data: data}
	if r.u32() != frameMagic {
		return nil, ErrBadFrame
	}
	if r.u8() != frameVersion {
		return nil, ErrBadFrame
	}
	p := &Push{Flags: r.u8()}
	if p.Flags&^flagsKnown != 0 {
		return nil, ErrBadFrame
	}
	if p.Relay() {
		p.Depth = r.u8()
	}
	idLen := int(r.u16())
	if idLen == 0 || idLen > MaxAgentIDLen {
		return nil, ErrBadFrame
	}
	id := r.take(idLen)
	if id == nil {
		return nil, ErrBadFrame
	}
	p.Agent = string(id)
	p.Gen, p.Seq, p.Cursor = r.u64(), r.u64(), r.u64()
	nCand := int(r.u16())
	if nCand > MaxPushCandidates {
		return nil, ErrBadFrame
	}
	if r.err == nil && nCand > 0 {
		if len(r.data)-r.pos < 8*nCand {
			return nil, ErrBadFrame
		}
		p.Candidates = make([]uint64, nCand)
		for i := range p.Candidates {
			p.Candidates[i] = r.u64()
		}
	}
	rawLen := int(r.u32())
	compLen := int(r.u32())
	if r.err != nil {
		return nil, ErrBadFrame
	}
	if rawLen > maxEnvelope {
		return nil, &TooLargeError{Size: rawLen, Limit: maxEnvelope}
	}
	comp := r.take(compLen)
	if comp == nil || r.pos != len(r.data) {
		return nil, ErrBadFrame
	}
	if rawLen == 0 {
		if compLen != 0 || !p.Heartbeat() {
			return nil, ErrBadFrame
		}
		return p, nil
	}
	if p.Heartbeat() {
		return nil, ErrBadFrame
	}
	d := decompressors.Get().(*decompressor)
	env, err := d.inflate(comp, rawLen)
	decompressors.Put(d)
	if err != nil {
		return nil, err
	}
	p.Envelope = env
	return p, nil
}

// frameReader is a bounds-checked little-endian cursor; after any
// overrun every subsequent read reports zero and err is set.
type frameReader struct {
	data []byte
	pos  int
	err  error
}

func (r *frameReader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.pos < n {
		r.err = ErrBadFrame
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *frameReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *frameReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *frameReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *frameReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Status is the aggregator's verdict on a push.
type Status string

const (
	// StatusApplied: the frame was applied to the agent's contribution.
	StatusApplied Status = "applied"
	// StatusDuplicate: the frame (or a copy of it) was already applied;
	// nothing changed. The push still renews the agent's lease.
	StatusDuplicate Status = "duplicate"
	// StatusResync: the aggregator cannot place the frame (unknown agent
	// or generation after an aggregator restart, stale generation, or a
	// sequence gap). The agent must start a fresh generation with a
	// full-state snapshot.
	StatusResync Status = "resync"
)

// Ack is the aggregator's response to a push.
type Ack struct {
	Status Status `json:"status"`
	// Gen/Seq/Cursor are the aggregator's per-agent frontier after the
	// push: the generation it is tracking, the last applied sequence, and
	// the cursor of the last applied frame. On StatusResync they tell the
	// agent which generations are burned and where its replayable source
	// stands.
	Gen    uint64 `json:"gen"`
	Seq    uint64 `json:"seq"`
	Cursor uint64 `json:"cursor"`
}

// ResumeInfo is the aggregator's durable view of an agent, used by a
// restarting agent to pick a fresh generation and a replay point.
type ResumeInfo struct {
	// Known is false when the aggregator has no state for the agent.
	Known  bool   `json:"known"`
	Gen    uint64 `json:"gen"`
	Seq    uint64 `json:"seq"`
	Cursor uint64 `json:"cursor"`
}
