package salsa

import (
	"errors"
	"fmt"
	"sort"

	"salsa/internal/sketch"
	"salsa/internal/topk"
	"salsa/internal/window"
)

// Sliding-window sketches: time-scoped variants of CountMin,
// ConservativeUpdate, CountSketch and Monitor that answer queries over the
// most recent stretch of the stream instead of its whole history. The
// window is a ring of B bucket sketches sharing one set of hash seeds; the
// current bucket absorbs updates, a rotation retires the oldest bucket
// wholesale, and queries are answered from an incrementally-maintained
// merge of the live buckets (see internal/window). Rotation happens every
// bucketItems updates, or on explicit Tick calls when bucketItems is 0 —
// tie Tick to a wall-clock timer for time-based windows.
//
// Semantics are bucket-granular: the live window always covers between
// (B−1)·bucketItems+1 and B·bucketItems of the most recent items, so
// estimates trail an exact B·bucketItems-item window by at most one bucket
// of slack. Memory is 2B times a single sketch of the same Options at
// steady state: B buckets, the back aggregate and query view, and B−2
// precomputed suffix merges that make rotation O(1) amortized in B
// (see internal/window; the suffix sketches are allocated at the first
// stack flip, so rings that never rotate stay at B+2).
//
// The windowed types satisfy Sketch, so they compose with the concurrency
// layers and their batch APIs: ShardedBy(Windowed(...)) and, for
// Tick-driven windows, EpochShardedBy(Windowed(...)).

// WindowedCountMin is a CountMin (or, via Windowed(ConservativeOf(...)),
// Conservative Update) sketch over a sliding window of the stream. Query
// returns an overestimate of the item's frequency within the live window,
// with the merged-sketch guarantees of the underlying backend. Every
// counter mode composes, including ModeTango; under conservative update
// every row counter still overestimates its items' bucket substream
// counts, so the summed window view keeps the overestimate guarantee.
type WindowedCountMin struct {
	ring         *window.Ring[*sketch.CMS]
	opt          Options
	conservative bool
}

// buildWindowedCMS realizes a Windowed(CountMinOf/ConservativeOf) spec.
//
// Windowed sketches always use sum-merge counters: a window query merges
// bucket sketches of disjoint substreams, and only summing their counters
// preserves the overestimate guarantee for the concatenated stream
// (max-merge is the tighter policy for counter merges within one stream,
// Theorem V.2, but taking the max across buckets would under-count items
// spread over the window). MergeMax is a composition error.
func buildWindowedCMS(opt Options, buckets, bucketItems int, conservative bool) *WindowedCountMin {
	opt = opt.withDefaults(4, MergeSum)
	ring := window.NewRing(buckets, uint64(bucketItems), cmsRingOps(opt, conservative))
	return &WindowedCountMin{ring: ring, opt: opt, conservative: conservative}
}

// cmsRingOps binds the ring bucket operations to *sketch.CMS for
// defaults-applied Options; the envelope decoder reuses it to rebuild
// decoded rings.
func cmsRingOps(opt Options, conservative bool) window.Ops[*sketch.CMS] {
	return window.Ops[*sketch.CMS]{
		New: func() *sketch.CMS {
			if conservative {
				return sketch.NewCUS(opt.Depth, opt.Width, rowSpec(opt), opt.Seed)
			}
			return sketch.NewCMS(opt.Depth, opt.Width, rowSpec(opt), opt.Seed)
		},
		Reset: (*sketch.CMS).Reset,
		Merge: (*sketch.CMS).MergeFrom,
	}
}

// validateWindow checks the window-decorator parameters and the
// sum-merge requirement shared by every windowed sketch.
func validateWindow(opt Options, buckets, bucketItems int) error {
	if opt.Merge == MergeMax {
		return errors.New("salsa: windowed sketches require MergeSum (bucket merges sum disjoint substreams)")
	}
	if buckets <= 0 {
		return fmt.Errorf("salsa: window needs at least one bucket, got %d", buckets)
	}
	if buckets > maxWindowBuckets {
		return fmt.Errorf("salsa: window buckets %d exceed the maximum %d", buckets, maxWindowBuckets)
	}
	if bucketItems < 0 {
		return fmt.Errorf("salsa: negative bucket interval %d", bucketItems)
	}
	return nil
}

// maxWindowBuckets bounds the ring size; it matches the decoder's
// hostile-payload bound, so every constructible window is serializable.
const maxWindowBuckets = 1 << 16

// Update adds count occurrences of item to the current bucket. Negative
// counts follow the same rules as CountMin (MergeSum only, never in
// conservative mode); note a negative update only cancels occurrences
// recorded in the current bucket.
func (w *WindowedCountMin) Update(item uint64, count int64) {
	w.ring.Cur().Update(item, count)
	w.ring.Wrote(1)
}

// Increment adds one occurrence of item.
func (w *WindowedCountMin) Increment(item uint64) { w.Update(item, 1) }

// UpdateBatch adds count occurrences of every item, in order, splitting the
// batch at rotation boundaries so it leaves the window in the identical
// state as the equivalent sequence of single Updates.
func (w *WindowedCountMin) UpdateBatch(items []uint64, count int64) {
	windowBatch(w.ring, items, count)
}

// windowBatch applies a batch to the current bucket, split at rotation
// boundaries so batched ingestion stays bit-for-bit identical to the
// equivalent sequence of single Updates.
func windowBatch[S interface{ UpdateBatch([]uint64, int64) }](r *window.Ring[S], items []uint64, count int64) {
	for len(items) > 0 {
		chunk := items
		if room := r.Room(); uint64(len(chunk)) > room {
			chunk = chunk[:room]
		}
		r.Cur().UpdateBatch(chunk, count)
		r.Wrote(uint64(len(chunk)))
		items = items[len(chunk):]
	}
}

// IncrementBatch adds one occurrence of every item, in order.
func (w *WindowedCountMin) IncrementBatch(items []uint64) { w.UpdateBatch(items, 1) }

// Query returns the frequency overestimate of item within the live window.
func (w *WindowedCountMin) Query(item uint64) uint64 { return w.ring.View().Query(item) }

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (w *WindowedCountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	return w.ring.View().QueryBatch(items, dst)
}

// Tick rotates the window by one bucket, retiring the oldest. It is how
// callers drive time-based windows (bucketItems == 0), and may also be
// called alongside count-based rotation.
func (w *WindowedCountMin) Tick() { w.ring.Rotate() }

// Buckets returns the number of ring buckets B.
func (w *WindowedCountMin) Buckets() int { return w.ring.Buckets() }

// BucketItems returns the automatic rotation interval (0 = Tick-driven).
func (w *WindowedCountMin) BucketItems() int { return int(w.ring.Interval()) }

// Rotations returns the number of bucket rotations performed so far.
func (w *WindowedCountMin) Rotations() uint64 { return w.ring.Rotations() }

// WindowVolume returns the number of items recorded in the live window.
func (w *WindowedCountMin) WindowVolume() uint64 { return w.ring.Volume() }

// MemoryBits returns the steady-state subsystem footprint in bits: B bucket
// sketches, the rotation stacks' aggregates, and the query view.
func (w *WindowedCountMin) MemoryBits() int {
	return w.ring.Sketches() * w.ring.Cur().SizeBits()
}

// Depth and Width return the per-bucket sketch geometry.
func (w *WindowedCountMin) Depth() int { return w.ring.Cur().Depth() }

// Width returns the per-row slot count of each bucket.
func (w *WindowedCountMin) Width() int { return w.ring.Cur().Width() }

// Options returns the configuration the window's sketches were built with.
func (w *WindowedCountMin) Options() Options { return w.opt }

// WindowedCountSketch is a Count Sketch over a sliding window: unbiased
// windowed frequency estimates in the general Turnstile model.
type WindowedCountSketch struct {
	ring *window.Ring[*sketch.CountSketch]
	opt  Options
}

// buildWindowedCountSketch realizes a Windowed(CountSketchOf) spec.
func buildWindowedCountSketch(opt Options, buckets, bucketItems int) *WindowedCountSketch {
	opt = opt.withDefaults(5, MergeSum)
	ring := window.NewRing(buckets, uint64(bucketItems), csRingOps(opt))
	return &WindowedCountSketch{ring: ring, opt: opt}
}

// csRingOps binds the ring bucket operations to *sketch.CountSketch for
// defaults-applied Options; the envelope decoder reuses it.
func csRingOps(opt Options) window.Ops[*sketch.CountSketch] {
	spec := signedRowSpec(opt)
	return window.Ops[*sketch.CountSketch]{
		New:   func() *sketch.CountSketch { return sketch.NewCountSketch(opt.Depth, opt.Width, spec, opt.Seed) },
		Reset: (*sketch.CountSketch).Reset,
		Merge: func(dst, src *sketch.CountSketch) { dst.MergeFrom(src, 1) },
	}
}

// Update adds count occurrences of item (count of either sign) to the
// current bucket.
func (w *WindowedCountSketch) Update(item uint64, count int64) {
	w.ring.Cur().Update(item, count)
	w.ring.Wrote(1)
}

// Increment adds one occurrence of item.
func (w *WindowedCountSketch) Increment(item uint64) { w.Update(item, 1) }

// UpdateBatch adds count occurrences of every item, in order, splitting at
// rotation boundaries; identical in effect to single Updates.
func (w *WindowedCountSketch) UpdateBatch(items []uint64, count int64) {
	windowBatch(w.ring, items, count)
}

// IncrementBatch adds one occurrence of every item, in order.
func (w *WindowedCountSketch) IncrementBatch(items []uint64) { w.UpdateBatch(items, 1) }

// Query returns the (unbiased) frequency estimate of item within the live
// window.
func (w *WindowedCountSketch) Query(item uint64) int64 { return w.ring.View().Query(item) }

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (w *WindowedCountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	return w.ring.View().QueryBatch(items, dst)
}

// Tick rotates the window by one bucket, retiring the oldest.
func (w *WindowedCountSketch) Tick() { w.ring.Rotate() }

// Buckets returns the number of ring buckets B.
func (w *WindowedCountSketch) Buckets() int { return w.ring.Buckets() }

// BucketItems returns the automatic rotation interval (0 = Tick-driven).
func (w *WindowedCountSketch) BucketItems() int { return int(w.ring.Interval()) }

// Rotations returns the number of bucket rotations performed so far.
func (w *WindowedCountSketch) Rotations() uint64 { return w.ring.Rotations() }

// WindowVolume returns the number of items recorded in the live window.
func (w *WindowedCountSketch) WindowVolume() uint64 { return w.ring.Volume() }

// MemoryBits returns the steady-state subsystem footprint in bits (2B
// sketches once the rotation stacks are warm).
func (w *WindowedCountSketch) MemoryBits() int {
	return w.ring.Sketches() * w.ring.Cur().SizeBits()
}

// Options returns the configuration the window's sketches were built with.
func (w *WindowedCountSketch) Options() Options { return w.opt }

// WindowedMonitor tracks heavy hitters over a sliding window: a windowed
// Conservative Update sketch plus one top-k candidate set per bucket. An
// item is a candidate as long as it was among the k largest of some live
// bucket's substream, so heavy-hitter queries draw from the union of
// per-bucket candidates (up to k·B items) re-estimated against the full
// window — never from a k-truncated merged view, which would drop items
// whose volume is spread across buckets.
type WindowedMonitor struct {
	w     *WindowedCountMin
	heaps []*topk.Heap // per ring position, cleared when the bucket rotates
	k     int
}

// buildWindowedMonitor realizes a Windowed(MonitorOf) spec.
func buildWindowedMonitor(opt Options, k, buckets, bucketItems int) *WindowedMonitor {
	return newWindowedMonitor(buildWindowedCMS(opt, buckets, bucketItems, true), k)
}

// newWindowedMonitor wires the per-bucket candidate heaps onto a windowed
// CU sketch; the envelope decoder reuses it with a restored ring.
func newWindowedMonitor(w *WindowedCountMin, k int) *WindowedMonitor {
	m := &WindowedMonitor{
		w:     w,
		heaps: make([]*topk.Heap, w.Buckets()),
		k:     k,
	}
	for i := range m.heaps {
		m.heaps[i] = topk.New(k)
	}
	m.w.ring.OnRotate(func(cur int) { m.heaps[cur].Reset() })
	return m
}

// Process records one occurrence of item and refreshes the current
// bucket's candidate set.
func (m *WindowedMonitor) Process(item uint64) { m.Update(item, 1) }

// Update records count occurrences of item; with it WindowedMonitor
// satisfies Sketch and can back a Sharded tracker.
func (m *WindowedMonitor) Update(item uint64, count int64) {
	ring := m.w.ring
	cur, b := ring.CurIndex(), ring.Cur()
	// The candidate offer uses the bucket-local estimate: it decides
	// whether the item is among the bucket's k heaviest, and stays
	// meaningful after older buckets (and their contributions to a
	// window-wide estimate) rotate away. A bucket's heap is reset
	// whenever its sketch is, so offerEstimate's skip stays exact.
	offerEstimate(m.heaps[cur], item, b.UpdateEstimate(item, count))
	ring.Wrote(1)
}

// UpdateBatch records count occurrences of every item, in order. The
// candidate refresh couples items, so this is a per-item loop kept for the
// Sketch interface; identical to sequential Updates.
func (m *WindowedMonitor) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		m.Update(x, count)
	}
}

// Query returns the windowed frequency estimate for item.
func (m *WindowedMonitor) Query(item uint64) uint64 { return m.w.Query(item) }

// Tick rotates the window by one bucket, retiring the oldest bucket and
// its candidate set.
func (m *WindowedMonitor) Tick() { m.w.Tick() }

// WindowVolume returns the number of items recorded in the live window.
func (m *WindowedMonitor) WindowVolume() uint64 { return m.w.WindowVolume() }

// Rotations returns the number of bucket rotations performed so far.
func (m *WindowedMonitor) Rotations() uint64 { return m.w.Rotations() }

// MemoryBits returns the underlying windowed sketch footprint in bits.
func (m *WindowedMonitor) MemoryBits() int { return m.w.MemoryBits() }

// Sketch exposes the underlying windowed sketch for point queries.
func (m *WindowedMonitor) Sketch() *WindowedCountMin { return m.w }

// candidates returns the union of every live bucket's candidate set,
// re-estimated against the merged window view, in descending estimate
// order (up to k·B items).
func (m *WindowedMonitor) candidates() []ItemCount {
	view := m.w.ring.View()
	seen := make(map[uint64]struct{}, m.k*len(m.heaps))
	var out []ItemCount
	for _, h := range m.heaps {
		for _, e := range h.Items() {
			if _, dup := seen[e.Item]; dup {
				continue
			}
			seen[e.Item] = struct{}{}
			out = append(out, ItemCount{Item: e.Item, Count: int64(view.Query(e.Item))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
}

// Top returns the k candidates with the largest windowed estimates, in
// descending order.
func (m *WindowedMonitor) Top() []ItemCount {
	all := m.candidates()
	if len(all) > m.k {
		all = all[:m.k]
	}
	return all
}

// HeavyHitters returns every candidate whose windowed estimate is at least
// phi times the live window volume, in descending order — drawn from the
// full union of per-bucket candidate sets, so it can return more than k
// items.
func (m *WindowedMonitor) HeavyHitters(phi float64) []ItemCount {
	threshold := phi * float64(m.WindowVolume())
	var out []ItemCount
	for _, e := range m.candidates() {
		if float64(e.Count) < threshold {
			break // candidates are sorted descending
		}
		out = append(out, e)
	}
	return out
}

// Compile-time checks that the windowed types back the Sharded layer.
var (
	_ Sketch = (*WindowedCountMin)(nil)
	_ Sketch = (*WindowedCountSketch)(nil)
	_ Sketch = (*WindowedMonitor)(nil)
)
