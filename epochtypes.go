package salsa

import (
	"fmt"

	"salsa/internal/sketch"
	"salsa/internal/topk"
)

// Typed epoch-merged wrappers: the concrete sketches EpochShardedBy
// builds. Each couples the generic Epoch core (private per-writer
// sketches, seqlock epoch cuts) with a shared view of the matching
// sketch type. All private sketches share the view's seeds — they merge
// into it, unlike ShardedBy's hash-partitioned shards which deliberately
// use distinct per-shard seeds.
//
// Like windowed sketches, epoch sketches force sum-merge counters: a
// drain merges private sketches of disjoint substreams, and only summing
// preserves the overestimate (CMS/CU) and unbiasedness (CS) guarantees
// for the concatenated stream.
//
// Two ingestion surfaces:
//
//   - NewWriter returns a per-goroutine EpochWriter — the lock-free fast
//     path. Data becomes visible to queries at the next epoch drain
//     (Advance, AutoAdvance, or windowed Tick).
//   - The wrapper's own Update/UpdateBatch satisfy Sketch by applying to
//     the shared view directly under the view lock — immediately
//     visible, serialized, the compatibility path.

// validateEpochMerge rejects max-merge counters, which would under-count
// items spread across private epoch sketches (same argument as windows).
func validateEpochMerge(opt Options) error {
	if opt.Merge == MergeMax {
		return fmt.Errorf("salsa: epoch sketches require MergeSum (drains sum disjoint private substreams)")
	}
	return nil
}

// validateEpochWriters bounds the configured writer-slot count to the
// envelope decoder's limit.
func validateEpochWriters(writers int) error {
	if writers <= 0 {
		return fmt.Errorf("salsa: EpochShardedBy needs a positive writer count, got %d", writers)
	}
	if writers > maxEpochWriters {
		return fmt.Errorf("salsa: epoch writer count %d exceeds the maximum %d", writers, maxEpochWriters)
	}
	return nil
}

// EpochCountMin is an epoch-merged CountMin (or Conservative Update)
// sketch: lock-free per-writer ingestion drained into one shared CMS.
type EpochCountMin struct {
	*Epoch[*sketch.CMS]
	view *CountMin
}

// buildEpochCountMin realizes an EpochShardedBy(CountMinOf/ConservativeOf)
// spec.
func buildEpochCountMin(opt Options, writers int, conservative bool) (*EpochCountMin, error) {
	kind := kindCountMin
	if conservative {
		kind = kindConservative
	}
	if err := opt.validateFor(kind); err != nil {
		return nil, err
	}
	if err := validateEpochMerge(opt); err != nil {
		return nil, err
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(4, MergeSum)
	view := &CountMin{sk: cmsRingOps(opt, conservative).New(), opt: opt, conservative: conservative}
	return newEpochCountMin(view, writers), nil
}

// newEpochCountMin wires the epoch core onto an existing view; the
// envelope decoder reuses it with a decoded view.
func newEpochCountMin(view *CountMin, writers int) *EpochCountMin {
	ops := cmsRingOps(view.opt, view.conservative)
	c := &EpochCountMin{view: view}
	c.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CMS, n uint64) { view.sk.MergeFrom(buf) },
		ops.Reset)
	return c
}

// Update applies directly to the shared view (immediately visible,
// serialized). Use NewWriter for the lock-free path.
func (c *EpochCountMin) Update(item uint64, count int64) {
	c.viewMu.Lock()
	c.view.Update(item, count)
	c.viewMu.Unlock()
}

// Increment adds one occurrence of item to the shared view.
func (c *EpochCountMin) Increment(item uint64) { c.Update(item, 1) }

// UpdateBatch applies directly to the shared view, serialized.
func (c *EpochCountMin) UpdateBatch(items []uint64, count int64) {
	c.viewMu.Lock()
	c.view.UpdateBatch(items, count)
	c.viewMu.Unlock()
}

// Query returns the merged-view frequency overestimate. It reflects every
// epoch drained so far; Pending quantifies the not-yet-drained remainder.
func (c *EpochCountMin) Query(item uint64) uint64 {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.Query(item)
}

// QueryBatch writes the merged-view estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (c *EpochCountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.QueryBatch(items, dst)
}

// MemoryBits returns the footprint in bits: the shared view plus both
// private buffers of every writer slot.
func (c *EpochCountMin) MemoryBits() int { return c.view.MemoryBits() + c.privateBits() }

// Options returns the view configuration with defaults applied.
func (c *EpochCountMin) Options() Options { return c.view.opt }

// View exposes the shared read view for surfaces not wrapped here; do
// not mutate it concurrently with drains.
func (c *EpochCountMin) View() *CountMin { return c.view }

// EpochCountSketch is an epoch-merged Count Sketch: lock-free per-writer
// ingestion drained into one shared unbiased view.
type EpochCountSketch struct {
	*Epoch[*sketch.CountSketch]
	view *CountSketch
}

// buildEpochCountSketch realizes an EpochShardedBy(CountSketchOf) spec.
func buildEpochCountSketch(opt Options, writers int) (*EpochCountSketch, error) {
	if err := opt.validateFor(kindCountSketch); err != nil {
		return nil, err
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(5, MergeSum)
	view := &CountSketch{sk: csRingOps(opt).New(), opt: opt}
	return newEpochCountSketch(view, writers), nil
}

func newEpochCountSketch(view *CountSketch, writers int) *EpochCountSketch {
	ops := csRingOps(view.opt)
	c := &EpochCountSketch{view: view}
	c.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CountSketch, n uint64) { view.sk.MergeFrom(buf, 1) },
		ops.Reset)
	return c
}

// Update applies directly to the shared view, serialized.
func (c *EpochCountSketch) Update(item uint64, count int64) {
	c.viewMu.Lock()
	c.view.Update(item, count)
	c.viewMu.Unlock()
}

// Increment adds one occurrence of item to the shared view.
func (c *EpochCountSketch) Increment(item uint64) { c.Update(item, 1) }

// UpdateBatch applies directly to the shared view, serialized.
func (c *EpochCountSketch) UpdateBatch(items []uint64, count int64) {
	c.viewMu.Lock()
	c.view.UpdateBatch(items, count)
	c.viewMu.Unlock()
}

// Query returns the merged-view (unbiased) frequency estimate.
func (c *EpochCountSketch) Query(item uint64) int64 {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.Query(item)
}

// QueryBatch writes the merged-view estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (c *EpochCountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	return c.view.QueryBatch(items, dst)
}

// MemoryBits returns the view-plus-private-buffers footprint in bits.
func (c *EpochCountSketch) MemoryBits() int { return c.view.MemoryBits() + c.privateBits() }

// Options returns the view configuration with defaults applied.
func (c *EpochCountSketch) Options() Options { return c.view.opt }

// View exposes the shared read view.
func (c *EpochCountSketch) View() *CountSketch { return c.view }

// epochMonitorBuf is a Monitor's private per-writer half: a CU sketch
// plus the epoch's top-k candidates by private estimate. On drain the
// sketch merges into the view and the candidates are re-offered at their
// merged estimates, in the heap's deterministic (count, item) order.
type epochMonitorBuf struct {
	cm   *sketch.CMS
	heap *topk.Heap
}

func (b *epochMonitorBuf) Update(item uint64, count int64) {
	offerEstimate(b.heap, item, b.cm.UpdateEstimate(item, count))
}

func (b *epochMonitorBuf) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		b.Update(x, count)
	}
}

func (b *epochMonitorBuf) SizeBits() int { return b.cm.SizeBits() }

// EpochMonitor is an epoch-merged heavy-hitter Monitor: each writer
// tracks its epoch's candidates privately; drains merge the sketches and
// re-estimate the candidates against the merged view.
type EpochMonitor struct {
	*Epoch[*epochMonitorBuf]
	view *Monitor
}

// buildEpochMonitor realizes an EpochShardedBy(MonitorOf) spec.
func buildEpochMonitor(opt Options, k, writers int) (*EpochMonitor, error) {
	if err := validateTrackerK("monitor", k); err != nil {
		return nil, err
	}
	if err := opt.validateFor(kindConservative); err != nil {
		return nil, err
	}
	if err := validateEpochMerge(opt); err != nil {
		return nil, err
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(4, MergeSum)
	view := &Monitor{
		cm:   &CountMin{sk: cmsRingOps(opt, true).New(), opt: opt, conservative: true},
		heap: topk.New(k),
	}
	return newEpochMonitor(view, writers), nil
}

func newEpochMonitor(view *Monitor, writers int) *EpochMonitor {
	k := view.heap.Cap()
	ops := cmsRingOps(view.cm.opt, true)
	m := &EpochMonitor{view: view}
	m.Epoch = newEpoch(writers,
		func() *epochMonitorBuf { return &epochMonitorBuf{cm: ops.New(), heap: topk.New(k)} },
		func(buf *epochMonitorBuf, n uint64) {
			view.cm.sk.MergeFrom(buf.cm)
			for _, ent := range buf.heap.Items() {
				view.heap.Offer(ent.Item, int64(view.cm.sk.Query(ent.Item)))
			}
		},
		func(buf *epochMonitorBuf) {
			buf.cm.Reset()
			buf.heap.Reset()
		})
	return m
}

// Update applies directly to the shared view, serialized.
func (m *EpochMonitor) Update(item uint64, count int64) {
	m.viewMu.Lock()
	m.view.Update(item, count)
	m.viewMu.Unlock()
}

// Process records one occurrence of item on the shared view.
func (m *EpochMonitor) Process(item uint64) { m.Update(item, 1) }

// UpdateBatch applies directly to the shared view, serialized.
func (m *EpochMonitor) UpdateBatch(items []uint64, count int64) {
	m.viewMu.Lock()
	m.view.UpdateBatch(items, count)
	m.viewMu.Unlock()
}

// Query returns the merged-view frequency overestimate.
func (m *EpochMonitor) Query(item uint64) uint64 {
	m.viewMu.Lock()
	defer m.viewMu.Unlock()
	return m.view.cm.Query(item)
}

// Top returns the tracked items in descending merged-estimate order.
func (m *EpochMonitor) Top() []ItemCount {
	m.viewMu.Lock()
	defer m.viewMu.Unlock()
	return m.view.Top()
}

// HeavyHitters returns the tracked items whose merged estimate is at
// least phi times volume.
func (m *EpochMonitor) HeavyHitters(phi float64, volume uint64) []ItemCount {
	m.viewMu.Lock()
	defer m.viewMu.Unlock()
	return m.view.HeavyHitters(phi, volume)
}

// K returns the tracker capacity.
func (m *EpochMonitor) K() int { return m.view.heap.Cap() }

// MemoryBits returns the view-plus-private-buffers footprint in bits.
func (m *EpochMonitor) MemoryBits() int { return m.view.MemoryBits() + m.privateBits() }

// Options returns the view configuration with defaults applied.
func (m *EpochMonitor) Options() Options { return m.view.cm.opt }

// EpochDistinct is an epoch-merged Linear Counting distinct estimator:
// private CMS sketches merge into one shared view whose zero-counter
// fractions feed the cardinality estimate.
type EpochDistinct struct {
	*Epoch[*sketch.CMS]
	view *Distinct
}

// buildEpochDistinct realizes an EpochShardedBy(DistinctOf) spec.
func buildEpochDistinct(opt Options, writers int) (*EpochDistinct, error) {
	if err := opt.validateFor(kindDistinct); err != nil {
		return nil, err
	}
	if err := validateEpochMerge(opt); err != nil {
		return nil, err
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	opt = opt.withDefaults(4, MergeSum)
	view := &Distinct{cm: &CountMin{sk: cmsRingOps(opt, false).New(), opt: opt}}
	return newEpochDistinct(view, writers), nil
}

func newEpochDistinct(view *Distinct, writers int) *EpochDistinct {
	ops := cmsRingOps(view.cm.opt, false)
	d := &EpochDistinct{view: view}
	d.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CMS, n uint64) { view.cm.sk.MergeFrom(buf) },
		ops.Reset)
	return d
}

// Update applies directly to the shared view, serialized.
func (d *EpochDistinct) Update(item uint64, count int64) {
	d.viewMu.Lock()
	d.view.Update(item, count)
	d.viewMu.Unlock()
}

// Increment adds one occurrence of item to the shared view.
func (d *EpochDistinct) Increment(item uint64) { d.Update(item, 1) }

// UpdateBatch applies directly to the shared view, serialized.
func (d *EpochDistinct) UpdateBatch(items []uint64, count int64) {
	d.viewMu.Lock()
	d.view.UpdateBatch(items, count)
	d.viewMu.Unlock()
}

// Query returns the merged-view frequency estimate.
func (d *EpochDistinct) Query(item uint64) uint64 {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.Query(item)
}

// Estimate returns the Linear Counting distinct estimate over the merged
// view.
func (d *EpochDistinct) Estimate() (float64, error) {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.Estimate()
}

// StdError returns the estimator's relative standard error at a true
// cardinality f0.
func (d *EpochDistinct) StdError(f0 float64) float64 { return d.view.StdError(f0) }

// MemoryBits returns the view-plus-private-buffers footprint in bits.
func (d *EpochDistinct) MemoryBits() int { return d.view.MemoryBits() + d.privateBits() }

// Options returns the view configuration with defaults applied.
func (d *EpochDistinct) Options() Options { return d.view.Options() }

// EpochWindowedCountMin is an epoch-merged sliding-window CountMin:
// drains fold private sketches into the window's current bucket, and
// Tick cuts an epoch before rotating so every pre-Tick operation lands
// in the pre-Tick bucket. Only Tick-driven windows compose (the spec
// layer rejects count-based rotation, which would split a drained epoch
// across buckets).
type EpochWindowedCountMin struct {
	*Epoch[*sketch.CMS]
	view *WindowedCountMin
}

// buildEpochWindowedCMS realizes an
// EpochShardedBy(Windowed(CountMinOf/ConservativeOf)) spec.
func buildEpochWindowedCMS(opt Options, buckets, bucketItems, writers int, conservative bool) (*EpochWindowedCountMin, error) {
	if bucketItems != 0 {
		return nil, fmt.Errorf("salsa: epoch windows are Tick-driven; bucketItems must be 0, got %d", bucketItems)
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	w, err := buildWindowedCMS(opt, buckets, 0, conservative)
	if err != nil {
		return nil, err
	}
	return newEpochWindowedCountMin(w, writers), nil
}

func newEpochWindowedCountMin(w *WindowedCountMin, writers int) *EpochWindowedCountMin {
	ops := cmsRingOps(w.opt, w.conservative)
	ew := &EpochWindowedCountMin{view: w}
	ew.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CMS, n uint64) {
			w.ring.Cur().MergeFrom(buf)
			w.ring.Wrote(n)
		},
		ops.Reset)
	return ew
}

// Update applies directly to the window's current bucket, serialized.
func (w *EpochWindowedCountMin) Update(item uint64, count int64) {
	w.viewMu.Lock()
	w.view.Update(item, count)
	w.viewMu.Unlock()
}

// Increment adds one occurrence of item to the current bucket.
func (w *EpochWindowedCountMin) Increment(item uint64) { w.Update(item, 1) }

// UpdateBatch applies directly to the current bucket, serialized.
func (w *EpochWindowedCountMin) UpdateBatch(items []uint64, count int64) {
	w.viewMu.Lock()
	w.view.UpdateBatch(items, count)
	w.viewMu.Unlock()
}

// Query returns the live-window frequency overestimate from the merged
// view.
func (w *EpochWindowedCountMin) Query(item uint64) uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.Query(item)
}

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (w *EpochWindowedCountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.QueryBatch(items, dst)
}

// Tick rotates the window by one bucket — after cutting an epoch, so all
// previously retired private data lands in the pre-Tick bucket. Writer
// operations concurrent with Tick land coherently in the pre- or
// post-Tick bucket, never split.
func (w *EpochWindowedCountMin) Tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advanceLocked()
	w.viewMu.Lock()
	w.view.Tick()
	w.viewMu.Unlock()
}

// Buckets returns the number of ring buckets B.
func (w *EpochWindowedCountMin) Buckets() int { return w.view.Buckets() }

// BucketItems returns 0: epoch windows are always Tick-driven.
func (w *EpochWindowedCountMin) BucketItems() int { return w.view.BucketItems() }

// Rotations returns the number of bucket rotations performed so far.
func (w *EpochWindowedCountMin) Rotations() uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.Rotations()
}

// WindowVolume returns the number of drained items in the live window.
func (w *EpochWindowedCountMin) WindowVolume() uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.WindowVolume()
}

// MemoryBits returns the ring-plus-private-buffers footprint in bits.
func (w *EpochWindowedCountMin) MemoryBits() int { return w.view.MemoryBits() + w.privateBits() }

// Options returns the bucket sketch configuration with defaults applied.
func (w *EpochWindowedCountMin) Options() Options { return w.view.opt }

// EpochWindowedCountSketch is an epoch-merged sliding-window Count
// Sketch; see EpochWindowedCountMin for the drain/Tick semantics.
type EpochWindowedCountSketch struct {
	*Epoch[*sketch.CountSketch]
	view *WindowedCountSketch
}

// buildEpochWindowedCountSketch realizes an
// EpochShardedBy(Windowed(CountSketchOf)) spec.
func buildEpochWindowedCountSketch(opt Options, buckets, bucketItems, writers int) (*EpochWindowedCountSketch, error) {
	if bucketItems != 0 {
		return nil, fmt.Errorf("salsa: epoch windows are Tick-driven; bucketItems must be 0, got %d", bucketItems)
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	w, err := buildWindowedCountSketch(opt, buckets, 0)
	if err != nil {
		return nil, err
	}
	return newEpochWindowedCountSketch(w, writers), nil
}

func newEpochWindowedCountSketch(w *WindowedCountSketch, writers int) *EpochWindowedCountSketch {
	ops := csRingOps(w.opt)
	ew := &EpochWindowedCountSketch{view: w}
	ew.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CountSketch, n uint64) {
			w.ring.Cur().MergeFrom(buf, 1)
			w.ring.Wrote(n)
		},
		ops.Reset)
	return ew
}

// Update applies directly to the window's current bucket, serialized.
func (w *EpochWindowedCountSketch) Update(item uint64, count int64) {
	w.viewMu.Lock()
	w.view.Update(item, count)
	w.viewMu.Unlock()
}

// Increment adds one occurrence of item to the current bucket.
func (w *EpochWindowedCountSketch) Increment(item uint64) { w.Update(item, 1) }

// UpdateBatch applies directly to the current bucket, serialized.
func (w *EpochWindowedCountSketch) UpdateBatch(items []uint64, count int64) {
	w.viewMu.Lock()
	w.view.UpdateBatch(items, count)
	w.viewMu.Unlock()
}

// Query returns the live-window (unbiased) frequency estimate.
func (w *EpochWindowedCountSketch) Query(item uint64) int64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.Query(item)
}

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate).
func (w *EpochWindowedCountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.QueryBatch(items, dst)
}

// Tick rotates the window by one bucket after cutting an epoch.
func (w *EpochWindowedCountSketch) Tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advanceLocked()
	w.viewMu.Lock()
	w.view.Tick()
	w.viewMu.Unlock()
}

// Buckets returns the number of ring buckets B.
func (w *EpochWindowedCountSketch) Buckets() int { return w.view.Buckets() }

// BucketItems returns 0: epoch windows are always Tick-driven.
func (w *EpochWindowedCountSketch) BucketItems() int { return w.view.BucketItems() }

// Rotations returns the number of bucket rotations performed so far.
func (w *EpochWindowedCountSketch) Rotations() uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.Rotations()
}

// WindowVolume returns the number of drained items in the live window.
func (w *EpochWindowedCountSketch) WindowVolume() uint64 {
	w.viewMu.Lock()
	defer w.viewMu.Unlock()
	return w.view.WindowVolume()
}

// MemoryBits returns the ring-plus-private-buffers footprint in bits.
func (w *EpochWindowedCountSketch) MemoryBits() int { return w.view.MemoryBits() + w.privateBits() }

// Options returns the bucket sketch configuration with defaults applied.
func (w *EpochWindowedCountSketch) Options() Options { return w.view.opt }

// EpochWindowedDistinct is an epoch-merged sliding-window distinct
// estimator. Sound under epochs because — unlike the sharded composition
// — all private sketches merge into one ring, so Linear Counting reads a
// single view.
type EpochWindowedDistinct struct {
	*Epoch[*sketch.CMS]
	view *WindowedDistinct
}

// buildEpochWindowedDistinct realizes an
// EpochShardedBy(Windowed(DistinctOf)) spec.
func buildEpochWindowedDistinct(opt Options, buckets, bucketItems, writers int) (*EpochWindowedDistinct, error) {
	if bucketItems != 0 {
		return nil, fmt.Errorf("salsa: epoch windows are Tick-driven; bucketItems must be 0, got %d", bucketItems)
	}
	if err := validateEpochWriters(writers); err != nil {
		return nil, err
	}
	d, err := buildWindowedDistinct(opt, buckets, 0)
	if err != nil {
		return nil, err
	}
	return newEpochWindowedDistinct(d, writers), nil
}

func newEpochWindowedDistinct(d *WindowedDistinct, writers int) *EpochWindowedDistinct {
	ops := cmsRingOps(d.w.opt, false)
	ew := &EpochWindowedDistinct{view: d}
	ew.Epoch = newEpoch(writers, ops.New,
		func(buf *sketch.CMS, n uint64) {
			d.w.ring.Cur().MergeFrom(buf)
			d.w.ring.Wrote(n)
		},
		ops.Reset)
	return ew
}

// Update applies directly to the window's current bucket, serialized.
func (d *EpochWindowedDistinct) Update(item uint64, count int64) {
	d.viewMu.Lock()
	d.view.Update(item, count)
	d.viewMu.Unlock()
}

// Increment adds one occurrence of item to the current bucket.
func (d *EpochWindowedDistinct) Increment(item uint64) { d.Update(item, 1) }

// UpdateBatch applies directly to the current bucket, serialized.
func (d *EpochWindowedDistinct) UpdateBatch(items []uint64, count int64) {
	d.viewMu.Lock()
	d.view.UpdateBatch(items, count)
	d.viewMu.Unlock()
}

// Query returns the live-window frequency estimate.
func (d *EpochWindowedDistinct) Query(item uint64) uint64 {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.Query(item)
}

// Estimate returns the Linear Counting distinct estimate over the live
// window's merged view.
func (d *EpochWindowedDistinct) Estimate() (float64, error) {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.Estimate()
}

// StdError returns the estimator's relative standard error at a true
// windowed cardinality f0.
func (d *EpochWindowedDistinct) StdError(f0 float64) float64 { return d.view.StdError(f0) }

// Tick rotates the window by one bucket after cutting an epoch.
func (d *EpochWindowedDistinct) Tick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.advanceLocked()
	d.viewMu.Lock()
	d.view.Tick()
	d.viewMu.Unlock()
}

// Buckets returns the number of ring buckets B.
func (d *EpochWindowedDistinct) Buckets() int { return d.view.w.Buckets() }

// Rotations returns the number of bucket rotations performed so far.
func (d *EpochWindowedDistinct) Rotations() uint64 {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.Rotations()
}

// WindowVolume returns the number of drained items in the live window.
func (d *EpochWindowedDistinct) WindowVolume() uint64 {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	return d.view.WindowVolume()
}

// MemoryBits returns the ring-plus-private-buffers footprint in bits.
func (d *EpochWindowedDistinct) MemoryBits() int { return d.view.MemoryBits() + d.privateBits() }

// Options returns the bucket sketch configuration with defaults applied.
func (d *EpochWindowedDistinct) Options() Options { return d.view.Options() }

// Compile-time checks that the epoch types satisfy Sketch.
var (
	_ Sketch = (*EpochCountMin)(nil)
	_ Sketch = (*EpochCountSketch)(nil)
	_ Sketch = (*EpochMonitor)(nil)
	_ Sketch = (*EpochDistinct)(nil)
	_ Sketch = (*EpochWindowedCountMin)(nil)
	_ Sketch = (*EpochWindowedCountSketch)(nil)
	_ Sketch = (*EpochWindowedDistinct)(nil)
)
