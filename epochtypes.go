package salsa

import (
	"errors"
	"fmt"

	"salsa/internal/sketch"
	"salsa/internal/topk"
)

// Typed epoch-merged topologies: the concrete sketches EpochShardedBy
// builds. Each embeds the Epoch core (private per-writer sketches,
// seqlock epoch cuts, the shared view and its direct-path updates) and
// adds the read methods of its view's kind. All private sketches share
// the view's seeds — they merge into it, unlike ShardedBy's
// hash-partitioned shards which deliberately use distinct per-shard seeds.
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
//   - The core's own Update/UpdateBatch satisfy Sketch by applying to
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

// errEpochRotation rejects a decoded window that rotates by item count:
// a drained epoch would split across buckets.
var errEpochRotation = errors.New("salsa: epoch windows are Tick-driven; decoded ring declares a rotation interval")

// newEpochLayer wires the epoch core onto view, returning the Epoch* type
// for the view's kind. Build passes a view built from a validated spec;
// the envelope decoder passes a decoded view, so the composition rules
// validate enforces on specs are re-checked here.
func newEpochLayer(view Sketch, writers int) (Sketch, error) {
	switch v := view.(type) {
	case *CountMin:
		if err := validateEpochMerge(v.opt); err != nil {
			return nil, err
		}
		return &EpochCountMin{newEpoch(v, writers, cmsRingOps(v.opt, v.conservative).New,
			func(buf *sketch.CMS, _ uint64) { v.sk.MergeFrom(buf) }), v}, nil
	case *CountSketch:
		return &EpochCountSketch{newEpoch(v, writers, csRingOps(v.opt).New,
			func(buf *sketch.CountSketch, _ uint64) { v.sk.MergeFrom(buf, 1) }), v}, nil
	case *Monitor:
		if err := validateEpochMerge(v.cm.opt); err != nil {
			return nil, err
		}
		return &EpochMonitor{newEpochMonitor(v, writers), v}, nil
	case *Distinct:
		if err := validateEpochMerge(v.cm.opt); err != nil {
			return nil, err
		}
		return &EpochDistinct{newEpoch(v, writers, cmsRingOps(v.cm.opt, false).New,
			func(buf *sketch.CMS, _ uint64) { v.cm.sk.MergeFrom(buf) }), v}, nil
	case *WindowedCountMin:
		if v.BucketItems() != 0 {
			return nil, errEpochRotation
		}
		return &EpochWindowedCountMin{newEpoch(v, writers, cmsRingOps(v.opt, v.conservative).New,
			func(buf *sketch.CMS, n uint64) { v.ring.Cur().MergeFrom(buf); v.ring.Wrote(n) }), v}, nil
	case *WindowedCountSketch:
		if v.BucketItems() != 0 {
			return nil, errEpochRotation
		}
		return &EpochWindowedCountSketch{newEpoch(v, writers, csRingOps(v.opt).New,
			func(buf *sketch.CountSketch, n uint64) { v.ring.Cur().MergeFrom(buf, 1); v.ring.Wrote(n) }), v}, nil
	case *WindowedDistinct:
		if v.w.BucketItems() != 0 {
			return nil, errEpochRotation
		}
		w := v.w
		return &EpochWindowedDistinct{newEpoch(v, writers, cmsRingOps(w.opt, false).New,
			func(buf *sketch.CMS, n uint64) { w.ring.Cur().MergeFrom(buf); w.ring.Wrote(n) }), v}, nil
	}
	return nil, fmt.Errorf("salsa: epoch envelope wraps unsupported topology %T", view)
}

// EpochCountMin is an epoch-merged CountMin (or Conservative Update)
// sketch: lock-free per-writer ingestion drained into one shared CMS.
type EpochCountMin struct {
	*Epoch
	view *CountMin
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

// Options returns the view configuration with defaults applied.
func (c *EpochCountMin) Options() Options { return c.view.opt }

// View exposes the shared read view for surfaces not wrapped here; do
// not mutate it concurrently with drains.
func (c *EpochCountMin) View() *CountMin { return c.view }

// EpochCountSketch is an epoch-merged Count Sketch: lock-free per-writer
// ingestion drained into one shared unbiased view.
type EpochCountSketch struct {
	*Epoch
	view *CountSketch
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

// Options returns the view configuration with defaults applied.
func (c *EpochCountSketch) Options() Options { return c.view.opt }

// View exposes the shared read view.
func (c *EpochCountSketch) View() *CountSketch { return c.view }

// newEpochMonitor wires the epoch core onto a Monitor view: each drain
// merges a private sketch and re-offers its candidates at their merged
// estimates.
func newEpochMonitor(view *Monitor, writers int) *Epoch {
	k := view.heap.Cap()
	ops := cmsRingOps(view.cm.opt, true)
	return newEpoch(view, writers,
		func() *epochMonitorBuf { return &epochMonitorBuf{cm: ops.New(), heap: topk.New(k)} },
		func(buf *epochMonitorBuf, _ uint64) {
			view.cm.sk.MergeFrom(buf.cm)
			for _, ent := range buf.heap.Items() {
				view.heap.Offer(ent.Item, int64(view.cm.sk.Query(ent.Item)))
			}
		})
}

// EpochMonitor is an epoch-merged heavy-hitter Monitor: each writer
// tracks its epoch's candidates privately; drains merge the sketches and
// re-estimate the candidates against the merged view.
type EpochMonitor struct {
	*Epoch
	view *Monitor
}

// Process records one occurrence of item on the shared view.
func (m *EpochMonitor) Process(item uint64) { m.Update(item, 1) }

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

// Options returns the view configuration with defaults applied.
func (m *EpochMonitor) Options() Options { return m.view.cm.opt }

// EpochDistinct is an epoch-merged Linear Counting distinct estimator:
// private CMS sketches merge into one shared view whose zero-counter
// fractions feed the cardinality estimate.
type EpochDistinct struct {
	*Epoch
	view *Distinct
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

// Options returns the view configuration with defaults applied.
func (d *EpochDistinct) Options() Options { return d.view.Options() }

// EpochWindowedCountMin is an epoch-merged sliding-window CountMin:
// drains fold private sketches into the window's current bucket, and
// Tick cuts an epoch before rotating so every pre-Tick operation lands
// in the pre-Tick bucket. Only Tick-driven windows compose (the spec
// layer rejects count-based rotation, which would split a drained epoch
// across buckets).
type EpochWindowedCountMin struct {
	*Epoch
	view *WindowedCountMin
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

// Tick rotates the window by one bucket after cutting an epoch, so all
// previously retired private data lands in the pre-Tick bucket.
func (w *EpochWindowedCountMin) Tick() { w.tick() }

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

// Options returns the bucket sketch configuration with defaults applied.
func (w *EpochWindowedCountMin) Options() Options { return w.view.opt }

// EpochWindowedCountSketch is an epoch-merged sliding-window Count
// Sketch; see EpochWindowedCountMin for the drain/Tick semantics.
type EpochWindowedCountSketch struct {
	*Epoch
	view *WindowedCountSketch
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
func (w *EpochWindowedCountSketch) Tick() { w.tick() }

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

// Options returns the bucket sketch configuration with defaults applied.
func (w *EpochWindowedCountSketch) Options() Options { return w.view.opt }

// EpochWindowedDistinct is an epoch-merged sliding-window distinct
// estimator. Sound under epochs because — unlike the sharded composition
// — all private sketches merge into one ring, so Linear Counting reads a
// single view.
type EpochWindowedDistinct struct {
	*Epoch
	view *WindowedDistinct
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
func (d *EpochWindowedDistinct) Tick() { d.tick() }

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
