package salsa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"salsa/internal/sketch"
	"salsa/internal/topk"
	"salsa/internal/window"
)

// The universal envelope: one self-describing binary format for every
// topology the Spec algebra can express. A payload is
//
//	magic(4) | version(1) | type tag(1) | type-specific payload
//
// and composite topologies nest recursively — a sharded payload carries
// one complete envelope per shard, a windowed payload one bucket sketch
// per ring position plus the ring odometer, and the tracker types carry
// their heaps. Marshal(x) followed by Unmarshal therefore round-trips any
// sketch this package can build, and the decoded sketch is fully
// operational: windowed rings resume rotating mid-bucket, sharded
// topologies keep routing items to the shard that sketched them, and —
// since hash seeds travel with every layer — decoded sketches Merge with
// their seed-sharing peers from other processes, the paper's distributed
// use case (§V) at full generality. Re-marshaling a decoded sketch
// reproduces the payload byte for byte.
//
// Decoding is hardened against hostile bytes: every declared geometry is
// length-checked against the remaining payload before allocation, bucket
// sketches are verified merge-compatible with their ring's declared
// configuration before any merge runs, and all failures are errors, never
// panics.

const (
	envMagic   = uint32(0x5a15ae9e)
	envVersion = byte(1)

	tagCountMin            = byte(1)
	tagCountSketch         = byte(2)
	tagMonitor             = byte(3)
	tagTopK                = byte(4)
	tagWindowedCountMin    = byte(5)
	tagWindowedCountSketch = byte(6)
	tagWindowedMonitor     = byte(7)
	tagSharded             = byte(8)
	tagUnivMon             = byte(9)
	tagAEE                 = byte(10)
	tagDistinct            = byte(11)
	tagColdFilter          = byte(12)
	tagPyramid             = byte(13)
	tagWindowedDistinct    = byte(14)
	tagEpoch               = byte(15)
)

// Decoder bounds for hostile payloads; canonical payloads respect them by
// construction (maxWindowBuckets and maxHeapK also bound the builders, so
// every constructible sketch is serializable). maxHeapK must fit int on
// 32-bit platforms: the decoded capacity is converted to int before
// reaching topk.Restore.
const (
	maxShards = 1 << 16
	maxHeapK  = math.MaxInt32
)

// ErrUnsupportedTopology is returned by Marshal for sketches outside the
// envelope's type set.
var ErrUnsupportedTopology = errors.New("salsa: topology does not support the universal envelope")

// envHeaderLen is the envelope prefix: magic, version and tag.
const envHeaderLen = 4 + 1 + 1

// envHeader starts an envelope with room for size payload bytes after the
// prefix, so a caller that knows its payload's length allocates once.
func envHeader(tag byte, size int) []byte {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, envHeaderLen+size), envMagic)
	return append(buf, envVersion, tag)
}

// sizedSketch is the codec of the two leaf sketches: MarshalBinary split
// into its exact length and an append to the caller's buffer.
type sizedSketch interface {
	binarySize() int
	appendBinary(buf []byte) ([]byte, error)
}

// appendSketchBlock appends s's MarshalBinary encoding as a length-prefixed
// block, encoding it in place instead of through an intermediate copy.
func appendSketchBlock(buf []byte, s sizedSketch) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.binarySize()))
	return s.appendBinary(buf)
}

func appendBlock(buf, block []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(block)))
	return append(buf, block...)
}

func readBlock(data []byte) (block, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, ErrBadPayload
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) < n {
		return nil, nil, ErrBadPayload
	}
	return data[:n], data[n:], nil
}

// concurrencyLayer is the marshal hook of the two concurrency layers,
// Sharded and Epoch; their typed wrappers inherit it by embedding.
type concurrencyLayer interface {
	marshalLayer() ([]byte, error)
}

// Marshal encodes any supported sketch topology into the universal
// envelope. Sharded topologies are snapshotted consistently: every shard
// lock is held for the duration, so the payload is a point-in-time image
// even under concurrent ingestion.
func Marshal(s Sketch) ([]byte, error) {
	switch x := s.(type) {
	case *CountMin:
		return appendSketchBlock(envHeader(tagCountMin, 8+x.binarySize()), x)
	case *CountSketch:
		return appendSketchBlock(envHeader(tagCountSketch, 8+x.binarySize()), x)
	case *Monitor:
		buf := envHeader(tagMonitor, 8+8+x.cm.binarySize()+heapSize(x.heap))
		buf, err := appendSketchBlock(binary.LittleEndian.AppendUint64(buf, uint64(x.heap.Cap())), x.cm)
		if err != nil {
			return nil, err
		}
		return appendHeap(buf, x.heap), nil
	case *TopK:
		buf := envHeader(tagTopK, 8+8+x.cs.binarySize()+heapSize(x.heap))
		buf, err := appendSketchBlock(binary.LittleEndian.AppendUint64(buf, uint64(x.heap.Cap())), x.cs)
		if err != nil {
			return nil, err
		}
		return appendHeap(buf, x.heap), nil
	case *WindowedCountMin:
		payload, err := marshalWindowedCMS(x)
		if err != nil {
			return nil, err
		}
		return append(envHeader(tagWindowedCountMin, len(payload)), payload...), nil
	case *WindowedCountSketch:
		payload, err := marshalWindowedCS(x)
		if err != nil {
			return nil, err
		}
		return append(envHeader(tagWindowedCountSketch, len(payload)), payload...), nil
	case *WindowedMonitor:
		payload, err := marshalWindowedCMS(x.w)
		if err != nil {
			return nil, err
		}
		buf := binary.LittleEndian.AppendUint64(envHeader(tagWindowedMonitor, 16+len(payload)), uint64(x.k))
		buf = appendBlock(buf, payload)
		for _, h := range x.heaps {
			buf = appendHeap(buf, h)
		}
		return buf, nil
	case *UnivMon:
		return marshalUnivMon(x)
	case *AEE:
		return marshalAEE(x)
	case *Distinct:
		return appendSketchBlock(envHeader(tagDistinct, 8+x.cm.binarySize()), x.cm)
	case *WindowedDistinct:
		payload, err := marshalWindowedCMS(x.w)
		if err != nil {
			return nil, err
		}
		return append(envHeader(tagWindowedDistinct, len(payload)), payload...), nil
	case *ColdFilter:
		return marshalColdFilter(x)
	case *Pyramid:
		return marshalPyramid(x)
	case concurrencyLayer:
		return x.marshalLayer()
	}
	return nil, fmt.Errorf("%w: %T", ErrUnsupportedTopology, s)
}

// marshalLayer encodes an epoch topology: the configured writer count
// followed by the shared view's own envelope. It first cuts an epoch
// (under the control lock, so it is a consistent snapshot: every
// operation completed before the call is drained into the view), then
// serializes the view alone. The epoch odometer and private buffers are
// transient coordination state and are deliberately not serialized — a
// decoded instance starts at epoch 0 with empty privates, which is what
// makes re-marshaling reproduce the payload byte for byte (the re-marshal
// epoch cut drains nothing).
func (e *Epoch) marshalLayer() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advanceLocked()
	e.viewMu.Lock()
	inner, err := Marshal(e.view)
	e.viewMu.Unlock()
	if err != nil {
		return nil, err
	}
	buf := binary.LittleEndian.AppendUint64(envHeader(tagEpoch, 16+len(inner)), uint64(e.base))
	return appendBlock(buf, inner), nil
}

// unmarshalEpoch decodes an epoch envelope: the writer count plus a
// nested view envelope, rebuilt into the matching Epoch* type with fresh
// (empty) private slots. Hostile payloads wrapping a topology the
// EpochShardedBy spec cannot express — max-merge counters, count-rotated
// windows, nested concurrency layers — are rejected.
func unmarshalEpoch(payload []byte) (Sketch, error) {
	if len(payload) < 8 {
		return nil, ErrBadPayload
	}
	writers := binary.LittleEndian.Uint64(payload)
	if writers == 0 || writers > maxEpochWriters {
		return nil, fmt.Errorf("salsa: epoch writer count %d out of range", writers)
	}
	block, rest, err := readBlock(payload[8:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	view, err := unmarshalEnvelope(block, false)
	if err != nil {
		return nil, err
	}
	return newEpochLayer(view, int(writers))
}

// Unmarshal decodes a universal-envelope payload into its topology's
// concrete type behind the Sketch interface; type-assert for the query
// surface (sharded topologies come back as their typed wrappers, e.g.
// *ShardedWindowedCountMin). Arbitrary or corrupted bytes are rejected
// with an error, never a panic, and decoder allocation is bounded by the
// payload length.
func Unmarshal(data []byte) (Sketch, error) {
	return unmarshalEnvelope(data, true)
}

// unmarshalEnvelope decodes one envelope; allowSharded is false for the
// nested per-shard envelopes, so hostile payloads cannot nest sharded
// layers the Spec algebra cannot express (and recursion stays bounded).
func unmarshalEnvelope(data []byte, allowSharded bool) (Sketch, error) {
	if len(data) < 6 {
		return nil, ErrBadPayload
	}
	if binary.LittleEndian.Uint32(data) != envMagic {
		return nil, ErrBadPayload
	}
	if data[4] != envVersion {
		return nil, fmt.Errorf("salsa: unknown envelope version %d", data[4])
	}
	tag := data[5]
	payload := data[6:]
	switch tag {
	case tagCountMin:
		block, rest, err := readBlock(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return UnmarshalCountMin(block)
	case tagCountSketch:
		block, rest, err := readBlock(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return UnmarshalCountSketch(block)
	case tagMonitor:
		k, block, rest, err := readTrackerHeader(payload)
		if err != nil {
			return nil, err
		}
		cm, err := UnmarshalCountMin(block)
		if err != nil {
			return nil, err
		}
		// A Monitor is always CU-backed (buildMonitor); reject hostile
		// payloads claiming otherwise, as the windowed decoder does.
		if !cm.conservative {
			return nil, ErrBadPayload
		}
		heap, rest, err := readHeap(rest, k)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return &Monitor{cm: cm, heap: heap}, nil
	case tagTopK:
		k, block, rest, err := readTrackerHeader(payload)
		if err != nil {
			return nil, err
		}
		cs, err := UnmarshalCountSketch(block)
		if err != nil {
			return nil, err
		}
		heap, rest, err := readHeap(rest, k)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return &TopK{cs: cs, heap: heap}, nil
	case tagWindowedCountMin:
		w, rest, err := unmarshalWindowedCMS(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return w, nil
	case tagWindowedCountSketch:
		w, rest, err := unmarshalWindowedCS(payload)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, ErrBadPayload
		}
		return w, nil
	case tagWindowedMonitor:
		return unmarshalWindowedMonitor(payload)
	case tagUnivMon:
		return unmarshalUnivMon(payload)
	case tagAEE:
		return unmarshalAEE(payload)
	case tagDistinct:
		return unmarshalDistinct(payload)
	case tagColdFilter:
		return unmarshalColdFilter(payload)
	case tagPyramid:
		return unmarshalPyramid(payload)
	case tagWindowedDistinct:
		return unmarshalWindowedDistinct(payload)
	case tagSharded:
		if !allowSharded {
			return nil, errors.New("salsa: nested sharded envelope")
		}
		return unmarshalSharded(payload)
	case tagEpoch:
		if !allowSharded {
			return nil, errors.New("salsa: nested epoch envelope")
		}
		return unmarshalEpoch(payload)
	}
	return nil, fmt.Errorf("salsa: unknown envelope tag %d", tag)
}

// readTrackerHeader reads the k + sketch-block prefix shared by the
// Monitor and TopK payloads.
func readTrackerHeader(data []byte) (k int, block, rest []byte, err error) {
	if len(data) < 8 {
		return 0, nil, nil, ErrBadPayload
	}
	kk := binary.LittleEndian.Uint64(data)
	if kk == 0 || kk > maxHeapK {
		return 0, nil, nil, fmt.Errorf("salsa: heap capacity %d out of range", kk)
	}
	block, rest, err = readBlock(data[8:])
	return int(kk), block, rest, err
}

// appendHeap encodes a candidate heap: the entry count followed by the
// entries in internal heap-array order, so a decoded heap re-marshals
// byte-identically.
func appendHeap(buf []byte, h *topk.Heap) []byte {
	entries := h.Snapshot()
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, e.Item)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Count))
	}
	return buf
}

// heapSize is the length of appendHeap's encoding of h.
func heapSize(h *topk.Heap) int { return 8 + 16*h.Len() }

// readHeap decodes a heap of capacity k. The entry count is length-checked
// against the remaining payload before allocating, and topk.Restore
// allocates proportionally to the entries, not k.
func readHeap(data []byte, k int) (*topk.Heap, []byte, error) {
	if len(data) < 8 {
		return nil, nil, ErrBadPayload
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if n > uint64(len(data))/16 {
		return nil, nil, ErrBadPayload
	}
	entries := make([]topk.Entry, n)
	for i := range entries {
		entries[i].Item = binary.LittleEndian.Uint64(data)
		entries[i].Count = int64(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
	}
	h, err := topk.Restore(k, entries)
	if err != nil {
		return nil, nil, err
	}
	return h, data, nil
}

// marshalRing encodes a windowed ring payload: the Options, the flag byte
// (the CU flag for CMS rings, 0 for Count Sketch layout parity), the ring
// odometer (current position, per-bucket counts, rotations), and every
// bucket sketch in ring-storage order. The derived rotation-stack
// aggregates and query view are not serialized; window.RestoreRing rebuilds
// the two-stack state from the rotation odometer with the same merge order
// the original ring used, so decoded query answers — and all future
// rotations — are bit-for-bit identical.
func marshalRing[S interface{ MarshalBinary() ([]byte, error) }](opt Options, flag byte, ring *window.Ring[S]) ([]byte, error) {
	buf := appendOptions(nil, opt)
	buf = append(buf, flag)
	buf = appendRingHeader(buf, ring.Buckets(), ring.Interval(), ring.CurIndex(), ring.Rotations())
	for i := 0; i < ring.Buckets(); i++ {
		buf = binary.LittleEndian.AppendUint64(buf, ring.CountAt(i))
	}
	for i := 0; i < ring.Buckets(); i++ {
		payload, err := ring.BucketAt(i).MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = appendBlock(buf, payload)
	}
	return buf, nil
}

func marshalWindowedCMS(w *WindowedCountMin) ([]byte, error) {
	return marshalRing(w.opt, boolByte(w.conservative), w.ring)
}

func marshalWindowedCS(w *WindowedCountSketch) ([]byte, error) {
	return marshalRing(w.opt, 0, w.ring)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendRingHeader(buf []byte, buckets int, interval uint64, cur int, rotations uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(buckets))
	buf = binary.LittleEndian.AppendUint64(buf, interval)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cur))
	return binary.LittleEndian.AppendUint64(buf, rotations)
}

// ringHeader is the decoded fixed-size prefix of a windowed payload.
type ringHeader struct {
	opt          Options
	conservative bool
	buckets      int
	interval     uint64
	cur          int
	rotations    uint64
	counts       []uint64
}

// readRingHeader decodes and bounds-checks the windowed prefix shared by
// both ring flavors. The bucket count is checked against both the
// builders' limit and the remaining payload (each bucket needs its count
// word and block length at minimum) before any allocation.
func readRingHeader(data []byte) (ringHeader, []byte, error) {
	var h ringHeader
	opt, rest, err := readOptions(data)
	if err != nil {
		return h, nil, err
	}
	if len(rest) < 1+4*8 {
		return h, nil, ErrBadPayload
	}
	h.opt = opt
	h.conservative = rest[0] == 1
	rest = rest[1:]
	buckets := binary.LittleEndian.Uint64(rest)
	h.interval = binary.LittleEndian.Uint64(rest[8:])
	cur := binary.LittleEndian.Uint64(rest[16:])
	h.rotations = binary.LittleEndian.Uint64(rest[24:])
	rest = rest[32:]
	if buckets == 0 || buckets > maxWindowBuckets || cur >= buckets {
		return h, nil, ErrBadPayload
	}
	if h.interval > 1<<62 {
		return h, nil, ErrBadPayload
	}
	if uint64(len(rest)) < buckets*16 {
		return h, nil, ErrBadPayload
	}
	h.buckets, h.cur = int(buckets), int(cur)
	h.counts = make([]uint64, h.buckets)
	for i := range h.counts {
		h.counts[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}
	// With auto-rotation (interval > 0), Wrote rotates the moment the
	// current bucket's count reaches the interval, so canonically
	// counts[cur] < interval and closed buckets hold at most exactly
	// interval. A hostile counts[cur] >= interval would make Ring.Room
	// underflow and break batch/per-item equivalence.
	if h.interval > 0 {
		for i, c := range h.counts {
			if c > h.interval || (i == h.cur && c >= h.interval) {
				return h, nil, ErrBadPayload
			}
		}
	}
	return h, rest[h.buckets*8:], nil
}

// boundRingGeometry rejects declared (defaults-applied) ring Options whose
// reference-sketch construction alone would allocate far beyond anything
// the remaining payload can justify. Every canonical bucket payload
// carries at least one bit per base counter per row (CounterBits ≥ 1), so
// a ring's payload holds ≥ Depth×Width/8 bytes; a hostile header claiming
// a huge geometry over a tiny payload must fail here, before ops.New
// builds the Depth×Width reference arena. The comparison divides rather
// than multiplying: Width can be any positive power of two up to 1<<62,
// so Depth*Width wraps for hostile headers and would bypass the bound.
func boundRingGeometry(opt Options, remaining int) error {
	if opt.Depth <= 0 || int64(opt.Width) > (8*int64(remaining)+4096)/int64(opt.Depth) {
		return ErrBadPayload
	}
	return nil
}

// unmarshalRing decodes the shared tail of a windowed payload — one
// length-prefixed bucket sketch per ring position, each verified
// merge-compatible with the reference configuration ops derives from the
// declared (defaults-applied) Options — then restores the ring. The
// geometry bound runs first, before ops.New builds the reference arena.
func unmarshalRing[S interface{ CompatibleWith(S) error }](h ringHeader, rest []byte, ops window.Ops[S], unmarshal func([]byte) (S, error)) (*window.Ring[S], []byte, error) {
	if err := boundRingGeometry(h.opt, len(rest)); err != nil {
		return nil, nil, err
	}
	ref := ops.New()
	buckets := make([]S, h.buckets)
	for i := range buckets {
		block, r, err := readBlock(rest)
		if err != nil {
			return nil, nil, err
		}
		rest = r
		b, err := unmarshal(block)
		if err != nil {
			return nil, nil, err
		}
		if err := ref.CompatibleWith(b); err != nil {
			return nil, nil, fmt.Errorf("salsa: bucket %d does not match the window options: %w", i, err)
		}
		buckets[i] = b
	}
	ring, err := window.RestoreRing(buckets, h.counts, h.cur, h.rotations, h.interval, ops)
	if err != nil {
		return nil, nil, err
	}
	return ring, rest, nil
}

// unmarshalWindowedCMS decodes a windowed CMS ring, verifying every bucket
// is merge-compatible with the declared Options before the ring's
// rotation-stack aggregates are rebuilt.
func unmarshalWindowedCMS(data []byte) (*WindowedCountMin, []byte, error) {
	h, rest, err := readRingHeader(data)
	if err != nil {
		return nil, nil, err
	}
	kind := kindCountMin
	if h.conservative {
		kind = kindConservative
	}
	if err := h.opt.validateFor(kind); err != nil {
		return nil, nil, err
	}
	if err := validateWindow(h.opt, h.buckets, 0); err != nil {
		return nil, nil, err
	}
	// Match the builder's defaults so the reference ops reconstruct the
	// exact bucket configuration the ring was built with (canonical
	// payloads carry defaults-applied Options already; hostile ones with
	// zero Depth/CounterBits must not reach the row constructors raw).
	h.opt = h.opt.withDefaults(4, MergeSum)
	ring, rest, err := unmarshalRing(h, rest, cmsRingOps(h.opt, h.conservative), sketch.UnmarshalCMS)
	if err != nil {
		return nil, nil, err
	}
	return &WindowedCountMin{ring: ring, opt: h.opt, conservative: h.conservative}, rest, nil
}

// unmarshalWindowedCS is unmarshalWindowedCMS for the Count Sketch ring.
func unmarshalWindowedCS(data []byte) (*WindowedCountSketch, []byte, error) {
	h, rest, err := readRingHeader(data)
	if err != nil {
		return nil, nil, err
	}
	if h.conservative {
		return nil, nil, ErrBadPayload
	}
	if err := h.opt.validateFor(kindCountSketch); err != nil {
		return nil, nil, err
	}
	if err := validateWindow(h.opt, h.buckets, 0); err != nil {
		return nil, nil, err
	}
	// Match the builder's defaults so the reference ops reconstruct the
	// exact bucket configuration the ring was built with.
	h.opt = h.opt.withDefaults(5, MergeSum)
	ring, rest, err := unmarshalRing(h, rest, csRingOps(h.opt), sketch.UnmarshalCountSketch)
	if err != nil {
		return nil, nil, err
	}
	return &WindowedCountSketch{ring: ring, opt: h.opt}, rest, nil
}

// unmarshalWindowedMonitor decodes a windowed heavy-hitter tracker: the
// underlying windowed CU ring plus one candidate heap per ring position.
func unmarshalWindowedMonitor(data []byte) (Sketch, error) {
	if len(data) < 8 {
		return nil, ErrBadPayload
	}
	kk := binary.LittleEndian.Uint64(data)
	if kk == 0 || kk > maxHeapK {
		return nil, fmt.Errorf("salsa: heap capacity %d out of range", kk)
	}
	k := int(kk)
	block, rest, err := readBlock(data[8:])
	if err != nil {
		return nil, err
	}
	w, tail, err := unmarshalWindowedCMS(block)
	if err != nil {
		return nil, err
	}
	if len(tail) != 0 || !w.conservative {
		return nil, ErrBadPayload
	}
	heaps := make([]*topk.Heap, w.Buckets())
	for i := range heaps {
		h, r, err := readHeap(rest, k)
		if err != nil {
			return nil, err
		}
		heaps[i], rest = h, r
	}
	if len(rest) != 0 {
		return nil, ErrBadPayload
	}
	m := &WindowedMonitor{w: w, heaps: heaps, k: k}
	m.w.ring.OnRotate(func(cur int) { m.heaps[cur].Reset() })
	return m, nil
}

// marshalLayer encodes a sharded topology: the routing seed, the shard
// count, and one nested envelope per shard in shard order. Every shard
// lock is held for the whole snapshot, so the payload is consistent even
// under concurrent ingestion. Shards of a type the decoder cannot wrap
// back into a sharded topology make the topology unsupported.
func (s *Sharded[S]) marshalLayer() ([]byte, error) {
	if shardedWrapper(s.shards[0].sk) == nil {
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedTopology, s)
	}
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	buf := binary.LittleEndian.AppendUint64(envHeader(tagSharded, 16), s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.shards)))
	for i := range s.shards {
		blob, err := Marshal(s.shards[i].sk)
		if err != nil {
			return nil, err
		}
		buf = appendBlock(buf, blob)
	}
	return buf, nil
}

// unmarshalSharded decodes a sharded topology into its typed wrapper,
// dispatching on the decoded shard type. Every shard must decode to the
// same concrete type; the shard count must be the power of two the
// Sharded router requires.
func unmarshalSharded(data []byte) (Sketch, error) {
	if len(data) < 16 {
		return nil, ErrBadPayload
	}
	routeSeed := binary.LittleEndian.Uint64(data)
	n := binary.LittleEndian.Uint64(data[8:])
	data = data[16:]
	if n == 0 || n > maxShards || n&(n-1) != 0 {
		return nil, ErrBadPayload
	}
	if uint64(len(data)) < n*8 {
		return nil, ErrBadPayload
	}
	sks := make([]Sketch, n)
	for i := range sks {
		block, rest, err := readBlock(data)
		if err != nil {
			return nil, err
		}
		data = rest
		sk, err := unmarshalEnvelope(block, false)
		if err != nil {
			return nil, err
		}
		sks[i] = sk
	}
	if len(data) != 0 {
		return nil, ErrBadPayload
	}
	wrap := shardedWrapper(sks[0])
	if wrap == nil {
		return nil, fmt.Errorf("salsa: shard type %T cannot back a sharded topology", sks[0])
	}
	// The Spec algebra gives every tracker shard the same k; a hostile
	// payload mixing heap capacities would silently truncate the
	// cross-shard candidate set to shard 0's.
	if k0, tracker := heapCapacity(sks[0]); tracker {
		for i, sk := range sks {
			if k, ok := heapCapacity(sk); ok && k != k0 {
				return nil, fmt.Errorf("salsa: shard %d heap capacity %d does not match shard 0's %d", i, k, k0)
			}
		}
	}
	return wrap(routeSeed, sks)
}

// heapCapacity returns the candidate-heap capacity of a tracker shard.
func heapCapacity(sk Sketch) (k int, tracker bool) {
	switch x := sk.(type) {
	case *Monitor:
		return x.heap.Cap(), true
	case *WindowedMonitor:
		return x.k, true
	}
	return 0, false
}
