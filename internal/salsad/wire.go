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
// generation (the aggregator keeps what the prior generation shipped and
// merges the new generation's deltas into it), agents the aggregator has
// no state for are told to resync with a full-state replacing snapshot,
// and leases flag agents that stopped reporting.
//
// The wire format is a small binary frame (magic, version, flags, ids,
// candidates) around a coded universal envelope. A delta envelope is
// mostly zero bytes, and the codec sends the lengths of its zero runs and
// the bytes between them, so the bytes on the wire track how much
// changed, not how wide the sketch is. The decode path is hardened: every
// length is bounded before any allocation or decoding, and an oversized
// envelope is reported as a typed *TooLargeError before salsa.Unmarshal
// ever sees the body.
//
// internal/faulttest proves the design: a seeded deterministic transport
// injects drops, duplicates, reorders, delays, partitions, and
// crash-restarts, and asserts that a quiesced aggregator is byte-identical
// to a no-fault sequential reference.
//
//salsa:typederrors
package salsad

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	frameMagic   uint32 = 0x44534c53 // "SLSD" little-endian
	frameVersion byte   = 2

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
	// decoded envelope carried by one push.
	DefaultMaxEnvelopeBytes = 8 << 20

	// maxFrameOverhead bounds the frame bytes around the coded envelope:
	// fixed header (incl. the optional relay depth byte) plus maximal
	// agent id and candidate list.
	maxFrameOverhead = 4 + 1 + 1 + 1 + 2 + MaxAgentIDLen + 8*3 + 2 + 8*MaxPushCandidates + 4 + 4 + 4

	// maxBlockBytes is the most input one deflate block holds.
	maxBlockBytes = 65535
	// minZeroRun is the shortest run of zeros between literals that the
	// codec counts rather than sends as literals; see split.
	minZeroRun = 4
)

// maxRunsLen bounds the run section of an n-byte envelope: every count
// costs at most as many bytes as it counts, and only the first and last
// zero counts can be zero, at one byte each.
func maxRunsLen(n int) int { return n + 2 }

// maxSectionsLen bounds the two sections of an n-byte envelope together.
// A count of x costs at most 1 + x/128 bytes, and the counts add up to n.
// With k literal runs there are 2k+1 counts, and the k−1 zero runs
// between literal runs hold at least minZeroRun ≥ 2 zeros each, so 2k+1
// is at most the number of counted zeros plus 3. The sections therefore
// hold at most the literals, the counted zeros plus 3, and n/128 bytes.
func maxSectionsLen(n int) int { return n + n/128 + 3 }

// maxSectionsLen holds only while minZeroRun ≥ 2.
const _ uint = minZeroRun - 2

// maxCodedLen bounds the coded sections of an n-byte envelope. The writer
// in deflate.go codes each section in blocks of at most maxBlockBytes, and
// a block it codes is never longer than the same bytes stored: 5 bytes of
// header plus up to 2 bits of alignment. Counting the flush marker between
// the sections and the empty final block, that is at most s/maxBlockBytes+4
// blocks for s section bytes, each at most 6 bytes over its contents.
func maxCodedLen(n int) int {
	s := maxSectionsLen(n)
	return s + 6*(s/maxBlockBytes+4)
}

// A ConfigError reports an AgentConfig, AggregatorConfig or RelayConfig
// field the constructors reject, or a missing DataDir where durability is
// required (Persist, OpenStore).
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

// A TooLargeError reports a push whose (decoded) envelope exceeds the
// aggregator's configured cap. It is produced from the frame's declared
// length, before any envelope allocation or decoding.
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
	// Envelope is the universal sketch envelope (nil for heartbeats). It
	// travels coded as the lengths of its zero runs and the bytes between
	// them.
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

// Encode serializes the frame, coding the envelope. Frames are
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

// headerLen is the encoded length of the frame up to its coded envelope.
func (p *Push) headerLen() int {
	n := 4 + 1 + 1 + 2 + len(p.Agent) + 3*8 + 2 + 8*len(p.Candidates) + 4 + 4 + 4
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
	var coded []byte
	runsLen := 0
	if len(p.Envelope) > 0 {
		e := encoders.Get().(*encoder)
		defer encoders.Put(e)
		coded, runsLen = e.encode(p.Envelope)
	}
	buf := make([]byte, 0, p.headerLen()+len(coded))
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(runsLen))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(coded)))
	return append(buf, coded...), nil
}

// The envelope codec. SALSA keeps counters small and a delta holds only
// what changed, so a delta envelope is mostly zero bytes. The codec splits
// an envelope into two sections:
//
//	runs      uvarints z₀ r₁ z₁ … rₖ zₖ: z₀ zero bytes, then r₁ literal
//	          bytes, then z₁ zero bytes, and so on to the envelope's end
//	literals  the bytes outside the zero runs, in order
//
// The writer in deflate.go codes each section in Huffman blocks of its
// own, so each gets its own table and run lengths do not compete with
// counter bytes for short codes; it writes what compress/flate writes at
// HuffmanOnly, and the inflater in inflate.go decodes it. The frame
// declares the envelope's length and the run section's; the literals'
// length follows from the runs.
//
// Zeros at either end of the envelope always form a run; between literals
// only a run of at least minZeroRun zeros does, and shorter ones travel as
// literals. A counter merged to 16 bits whose value fits a byte leaves a
// single zero; breaking the literals there costs two counts, two Huffman
// symbols to decode and one more move into place, where the zero itself
// costs one symbol. Dense frames are full of such zeros, and counting
// them would make those frames slower to decode for about the same coded
// size.

// encoder codes envelopes, and keeps the writer's tables, the section
// buffers and split's bitmaps for reuse. The writer starts each stream
// afresh, so a pooled encoder writes exactly what a new one would.
type encoder struct {
	w             huffWriter
	runs, lits    []byte
	nonzero, ends []uint64
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode returns the coded sections of env and the length of its run
// section. The coded bytes are held in e until it is used again.
func (e *encoder) encode(env []byte) (coded []byte, runsLen int) {
	e.split(env)
	return e.w.code(e.runs, e.lits), len(e.runs)
}

// split sets e.runs to env's run section and e.lits to its literals. One
// bitmap marks env's nonzero bytes and another the zeros that end a
// literal run: those followed by at least minZeroRun−1 more zeros, and
// those in the zeros that end env. A zero run ends at the next nonzero
// byte and a literal run at the next marked zero, so each is a scan for
// the next set bit. Both sections are presized to their bounds, so a count
// below 128 is one byte stored, and a literal run of at most 8 bytes one
// 8-byte load and store.
func (e *encoder) split(env []byte) {
	e.nonzero = markNonzero(env, e.nonzero)
	e.ends = markRunEnds(e.nonzero, e.ends)
	runs := slices.Grow(e.runs[:0], maxRunsLen(len(env)))[:maxRunsLen(len(env))]
	lits := slices.Grow(e.lits[:0], len(env)+8)[:len(env)+8]
	nr, nl := 0, 0
	for i := 0; ; {
		j := nextSet(e.nonzero, i, len(env))
		nr = putCount(runs, nr, j-i)
		if j == len(env) {
			break
		}
		i = nextSet(e.ends, j, len(env))
		nr = putCount(runs, nr, i-j)
		if i-j <= 8 && j+8 <= len(env) {
			binary.LittleEndian.PutUint64(lits[nl:], binary.LittleEndian.Uint64(env[j:]))
		} else {
			copy(lits[nl:], env[j:i])
		}
		nl += i - j
	}
	e.runs, e.lits = runs[:nr], lits[:nl]
}

// putCount writes the count v as a uvarint at runs[n:] and returns the
// index after it.
func putCount(runs []byte, n, v int) int {
	if v < 0x80 {
		runs[n] = byte(v)
		return n + 1
	}
	return n + binary.PutUvarint(runs[n:], uint64(v))
}

// markNonzero returns a bitmap, reusing nz, whose bit i is set when env[i]
// is not zero. It reads env eight bytes at a time, and marks a 64-byte
// chunk whose eight words OR to zero, as most of a sparse delta's are,
// without looking at its bytes.
func markNonzero(env []byte, nz []uint64) []uint64 {
	nz = slices.Grow(nz[:0], (len(env)+63)/64)[:(len(env)+63)/64]
	full := len(env) / 64
	for k := range full {
		c := (*[64]byte)(env[k*64:])
		w0, w1 := binary.LittleEndian.Uint64(c[0:]), binary.LittleEndian.Uint64(c[8:])
		w2, w3 := binary.LittleEndian.Uint64(c[16:]), binary.LittleEndian.Uint64(c[24:])
		w4, w5 := binary.LittleEndian.Uint64(c[32:]), binary.LittleEndian.Uint64(c[40:])
		w6, w7 := binary.LittleEndian.Uint64(c[48:]), binary.LittleEndian.Uint64(c[56:])
		if w0|w1|w2|w3|w4|w5|w6|w7 == 0 {
			nz[k] = 0
			continue
		}
		nz[k] = nonzeroBytes(w0) | nonzeroBytes(w1)<<8 | nonzeroBytes(w2)<<16 | nonzeroBytes(w3)<<24 |
			nonzeroBytes(w4)<<32 | nonzeroBytes(w5)<<40 | nonzeroBytes(w6)<<48 | nonzeroBytes(w7)<<56
	}
	if full < len(nz) {
		var m uint64
		for c, v := range env[full*64:] {
			if v != 0 {
				m |= 1 << c
			}
		}
		nz[full] = m
	}
	return nz
}

// nonzeroBytes returns a byte whose bit j is set when byte j of w is not
// zero. The high bit of each byte of (w&0x7f…7f + 0x7f…7f) | w is set when
// that byte of w is not zero, and multiplying those bits, shifted down to
// each byte's lowest, by 0x0102…80 gathers them into the top byte, lowest
// byte first.
func nonzeroBytes(w uint64) uint64 {
	const lo7, hi, gather = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080, 0x0102040810204080
	return ((w&lo7 + lo7) | w) & hi >> 7 * gather >> 56
}

// markRunEnds returns a bitmap, reusing ends, whose bit i is set when the
// minZeroRun bytes from i are all zero, counting the bytes past the
// envelope's end, which nz does not mark, as zeros.
func markRunEnds(nz, ends []uint64) []uint64 {
	ends = slices.Grow(ends[:0], len(nz))[:len(nz)]
	for k, w := range nz {
		z, next := ^w, ^uint64(0)
		if k+1 < len(nz) {
			next = ^nz[k+1]
		}
		m := z
		for s := 1; s < minZeroRun; s++ {
			m &= z>>s | next<<(64-s)
		}
		ends[k] = m
	}
	return ends
}

// nextSet returns the index of the first set bit of bm at or after i, or n
// when there is none before n.
func nextSet(bm []uint64, i, n int) int {
	k := i >> 6
	if k >= len(bm) {
		return n
	}
	if w := bm[k] >> (i & 63); w != 0 {
		return min(i+bits.TrailingZeros64(w), n)
	}
	for k++; k < len(bm); k++ {
		if bm[k] != 0 {
			return min(k<<6+bits.TrailingZeros64(bm[k]), n)
		}
	}
	return n
}

// decoder decodes coded sections with an inflater and buffers for the run
// section, its counts and the literals, all kept for reuse. Each decode
// starts the inflater afresh, so nothing of a stream a decode error
// abandoned part-way reaches the next.
type decoder struct {
	inf        inflater
	runs, lits []byte
	counts     []uint32
	one        [1]byte
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decode expands coded sections, whose run section is runsLen bytes long,
// into env, whose bytes are all zero; the caller has bounded both lengths.
// It inflates the runs and reads their counts, each bounded by what is
// left of env: a zero run, then a literal run and a zero run in turn to
// env's end. It inflates all the literals with one read and checks that
// the stream ends with them. Only then does it move the literals into
// place: a zero run is skipped, since env is zero, a literal run under 8
// bytes is one 8-byte store whose bytes past the run are zero, and a
// longer one is a copy. A rejected frame leaves env zero.
func (d *decoder) decode(coded, env []byte, runsLen int) error {
	f := &d.inf
	f.reset(coded)
	defer f.reset(nil) // the pool must not keep the caller's frame alive
	if cap(d.runs) < runsLen {
		d.runs = make([]byte, runsLen)
		d.counts = make([]uint32, 0, runsLen)
	}
	runs := d.runs[:runsLen]
	if n, err := f.read(runs); err != nil || n < runsLen {
		return ErrBadFrame
	}
	counts := d.counts[:0]
	pos, nlits := 0, 0
	for i := 0; i < len(runs); {
		c, j := uvarint(runs, i)
		if j <= i || c > uint64(len(env)-pos) {
			return ErrBadFrame
		}
		if len(counts)%2 == 1 {
			nlits += int(c)
		}
		counts = append(counts, uint32(c))
		pos += int(c)
		i = j
	}
	// The runs must end with a zero count and cover the envelope, the
	// stream must end with the literals, and the frame with the stream.
	if len(counts)%2 == 0 || pos != len(env) {
		return ErrBadFrame
	}
	if cap(d.lits) < nlits+8 {
		d.lits = make([]byte, nlits+8)
	}
	lits := d.lits[:cap(d.lits)]
	if n, err := f.read(lits[:nlits]); err != nil || n < nlits {
		return ErrBadFrame
	}
	if n, err := f.read(d.one[:]); n != 0 || err != nil || f.unread() != 0 {
		return ErrBadFrame
	}
	pos, l := 0, 0
	for k := 1; k < len(counts); k += 2 {
		pos += int(counts[k-1])
		n := int(counts[k])
		if n < 8 && pos+8 <= len(env) {
			binary.LittleEndian.PutUint64(env[pos:], binary.LittleEndian.Uint64(lits[l:])&(1<<(8*n)-1))
		} else {
			copy(env[pos:pos+n], lits[l:])
		}
		pos += n
		l += n
	}
	return nil
}

// uvarint reads the uvarint at runs[i:] and returns it with the index
// after it, or with i when there is none. It accepts what binary.Uvarint
// accepts, and is small enough to inline into the loops over the runs.
func uvarint(runs []byte, i int) (uint64, int) {
	var v uint64
	for j, s := i, uint(0); j < len(runs) && s < 64; j, s = j+1, s+7 {
		c := runs[j]
		if c < 0x80 {
			if s == 63 && c > 1 {
				break
			}
			return v | uint64(c)<<s, j + 1
		}
		v |= uint64(c&0x7f) << s
	}
	return 0, i
}

// DecodePush parses and validates a push frame. Every length is checked
// against its bound before the corresponding allocation; a declared
// envelope size over maxEnvelope returns a *TooLargeError without
// decoding a byte, so a hostile or corrupt push cannot balloon memory.
// The runs must cover exactly the declared envelope, the literals must end
// the coded stream, and the stream must end the frame. Decoding reuses
// pooled inflaters and section buffers; the returned envelope is the
// caller's.
func DecodePush(data []byte, maxEnvelope int) (*Push, error) {
	return decodePush(data, maxEnvelope, nil)
}

// decodePush is DecodePush, decoding the envelope into *buf when buf is
// not nil: *buf, grown when it is too short, must be zero up to its
// capacity, and is set to the envelope, which the returned Push shares.
// Clearing *buf restores what the next decode into it needs.
func decodePush(data []byte, maxEnvelope int, buf *[]byte) (*Push, error) {
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
	runsLen := int(r.u32())
	codedLen := int(r.u32())
	if r.err != nil {
		return nil, ErrBadFrame
	}
	if rawLen > maxEnvelope {
		return nil, &TooLargeError{Size: rawLen, Limit: maxEnvelope}
	}
	coded := r.take(codedLen)
	if coded == nil || r.pos != len(r.data) {
		return nil, ErrBadFrame
	}
	if rawLen == 0 {
		if runsLen != 0 || codedLen != 0 || !p.Heartbeat() {
			return nil, ErrBadFrame
		}
		return p, nil
	}
	if p.Heartbeat() || runsLen > maxRunsLen(rawLen) || codedLen > maxCodedLen(rawLen) {
		return nil, ErrBadFrame
	}
	var env []byte
	if buf == nil {
		env = make([]byte, rawLen)
	} else {
		if cap(*buf) < rawLen {
			*buf = make([]byte, rawLen)
		}
		env = (*buf)[:rawLen]
		*buf = env
	}
	d := decoders.Get().(*decoder)
	err := d.decode(coded, env, runsLen)
	decoders.Put(d)
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
