package salsa

import (
	"salsa/internal/distinct"
)

// Distinct is a Linear Counting distinct estimator over a Count-Min
// sketch (§III, "Counting Distinct Items"): each row's zero-counter
// fraction p yields the −w·ln(p) cardinality estimate, averaged over
// rows. The backing sketch still ingests and answers frequency queries
// normally, so one structure serves both surfaces.
type Distinct struct {
	cm *CountMin
}

// buildDistinct realizes a DistinctOf spec.
func buildDistinct(opt Options) *Distinct { return &Distinct{cm: buildCountMin(opt, false)} }

// Update adds count occurrences of item.
func (d *Distinct) Update(item uint64, count int64) { d.cm.Update(item, count) }

// UpdateBatch adds count occurrences of every item, in order.
func (d *Distinct) UpdateBatch(items []uint64, count int64) { d.cm.UpdateBatch(items, count) }

// Increment adds one occurrence of item.
func (d *Distinct) Increment(item uint64) { d.cm.Increment(item) }

// Query returns the frequency estimate from the backing Count-Min sketch.
func (d *Distinct) Query(item uint64) uint64 { return d.cm.Query(item) }

// Estimate returns the Linear Counting distinct estimate. It errors when
// some row has no zero counters — the load exceeded Linear Counting's
// operating range of roughly w·ln(w) distinct items.
func (d *Distinct) Estimate() (float64, error) { return d.cm.Distinct() }

// StdError returns the estimator's relative standard error at a true
// cardinality f0, the accuracy expression the paper quotes; it shrinks as
// the row width grows.
func (d *Distinct) StdError(f0 float64) float64 {
	return distinct.StdError(d.cm.Options().Width, f0)
}

// Options returns the backing sketch Options with defaults applied.
func (d *Distinct) Options() Options { return d.cm.Options() }

// MemoryBits returns the backing sketch footprint in bits.
func (d *Distinct) MemoryBits() int { return d.cm.MemoryBits() }

// WindowedDistinct estimates the distinct count of a sliding window: a
// windowed Count-Min ring whose merged live-bucket view feeds the Linear
// Counting estimate, so retired buckets' items age out of the cardinality.
type WindowedDistinct struct {
	w *WindowedCountMin
}

// buildWindowedDistinct realizes a Windowed(DistinctOf) spec.
func buildWindowedDistinct(opt Options, buckets, bucketItems int) *WindowedDistinct {
	return &WindowedDistinct{w: buildWindowedCMS(opt, buckets, bucketItems, false)}
}

// Update adds count occurrences of item to the current bucket.
func (d *WindowedDistinct) Update(item uint64, count int64) { d.w.Update(item, count) }

// UpdateBatch adds count occurrences of every item, in order.
func (d *WindowedDistinct) UpdateBatch(items []uint64, count int64) { d.w.UpdateBatch(items, count) }

// Increment adds one occurrence of item.
func (d *WindowedDistinct) Increment(item uint64) { d.w.Increment(item) }

// Query returns the windowed frequency estimate.
func (d *WindowedDistinct) Query(item uint64) uint64 { return d.w.Query(item) }

// Estimate returns the Linear Counting distinct estimate over the live
// window.
func (d *WindowedDistinct) Estimate() (float64, error) {
	return d.w.ring.View().DistinctLinearCounting()
}

// StdError returns the estimator's relative standard error at a true
// windowed cardinality f0.
func (d *WindowedDistinct) StdError(f0 float64) float64 {
	return distinct.StdError(d.w.Options().Width, f0)
}

// Tick rotates the window by one bucket, retiring the oldest bucket.
func (d *WindowedDistinct) Tick() { d.w.Tick() }

// WindowVolume returns the number of items recorded in the live window.
func (d *WindowedDistinct) WindowVolume() uint64 { return d.w.WindowVolume() }

// Rotations returns the number of bucket rotations performed so far.
func (d *WindowedDistinct) Rotations() uint64 { return d.w.Rotations() }

// Options returns the bucket sketch Options with defaults applied.
func (d *WindowedDistinct) Options() Options { return d.w.Options() }

// MemoryBits returns the ring footprint in bits.
func (d *WindowedDistinct) MemoryBits() int { return d.w.MemoryBits() }
