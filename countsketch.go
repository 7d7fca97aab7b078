package salsa

import (
	"salsa/internal/sketch"
	"salsa/internal/topk"
)

// CountSketch is a Count Sketch over the configured counter backend:
// unbiased, works in the general Turnstile model (negative frequencies) and
// provides the stronger L2 error guarantee. SALSA rows use sign-magnitude
// counters so that overflow is sign-symmetric, which preserves
// unbiasedness (Lemma V.4); Tango mode is not supported.
type CountSketch struct {
	sk  *sketch.CountSketch
	opt Options
}

// buildCountSketch realizes a CountSketchOf leaf. Merge policy is always
// sum; ModeTango and MergeMax are composition errors.
func buildCountSketch(opt Options) *CountSketch {
	opt = opt.withDefaults(5, MergeSum)
	return &CountSketch{sk: csRingOps(opt).New(), opt: opt}
}

// signedRowSpec maps validated Options to the Count Sketch row constructor.
func signedRowSpec(opt Options) sketch.SignedRowSpec {
	if opt.Mode == ModeBaseline {
		return sketch.FixedSignRow(opt.CounterBits)
	}
	return sketch.SalsaSignRow(opt.CounterBits, opt.CompactEncoding)
}

// Update adds count occurrences of item (count of either sign).
//
//salsa:hotpath
func (c *CountSketch) Update(item uint64, count int64) { c.sk.Update(item, count) }

// Increment adds one occurrence of item.
//
//salsa:hotpath
func (c *CountSketch) Increment(item uint64) { c.sk.Update(item, 1) }

// Query returns the (unbiased) frequency estimate for item.
//
//salsa:hotpath
func (c *CountSketch) Query(item uint64) int64 { return c.sk.Query(item) }

// UpdateBatch adds count occurrences of every item, in order; identical in
// effect to single Updates, hashed and applied row-at-a-time.
//
//salsa:hotpath
func (c *CountSketch) UpdateBatch(items []uint64, count int64) { c.sk.UpdateBatch(items, count) }

// IncrementBatch adds one occurrence of every item, in order.
//
//salsa:hotpath
func (c *CountSketch) IncrementBatch(items []uint64) { c.sk.UpdateBatch(items, 1) }

// QueryBatch writes the estimate of items[j] into dst[j] and returns dst,
// appending if dst is short (pass nil to allocate). Like Query, it must not
// run concurrently with other operations on c.
//
//salsa:hotpath
func (c *CountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	return c.sk.QueryBatch(items, dst)
}

// MemoryBits returns the sketch footprint in bits.
func (c *CountSketch) MemoryBits() int { return c.sk.SizeBits() }

// Depth and Width return the sketch geometry.
func (c *CountSketch) Depth() int { return c.sk.Depth() }

// Width returns the per-row slot count.
func (c *CountSketch) Width() int { return c.sk.Width() }

// Options returns the configuration the sketch was built with.
func (c *CountSketch) Options() Options { return c.opt }

// Merge folds other into c: s(A∪B). Sketches must share Options and Seed.
func (c *CountSketch) Merge(other *CountSketch) { c.sk.MergeFrom(other.sk, 1) }

// Subtract removes other from c: s(A\B), the frequency-difference sketch
// used for change detection (§V).
func (c *CountSketch) Subtract(other *CountSketch) { c.sk.MergeFrom(other.sk, -1) }

// TopK tracks the k items of largest estimated |frequency| over a
// CountSketch in one pass.
type TopK struct {
	cs   *CountSketch
	heap *topk.Heap
}

// buildTopK realizes a TopKOf leaf.
func buildTopK(opt Options, k int) *TopK {
	return &TopK{cs: buildCountSketch(opt), heap: topk.New(k)}
}

// Process records one occurrence of item and refreshes its heap entry.
func (t *TopK) Process(item uint64) { t.Update(item, 1) }

// Update records count occurrences of item (count of either sign) and
// refreshes its heap entry; with it TopK satisfies Sketch.
func (t *TopK) Update(item uint64, count int64) {
	t.cs.Update(item, count)
	t.heap.Offer(item, t.cs.Query(item))
}

// UpdateBatch records count occurrences of every item, in order. The heap
// refresh couples items, so this is a per-item loop kept for the Sketch
// interface; identical to sequential Updates.
func (t *TopK) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		t.Update(x, count)
	}
}

// MemoryBits returns the underlying sketch footprint in bits.
func (t *TopK) MemoryBits() int { return t.cs.MemoryBits() }

// Sketch exposes the underlying CountSketch.
func (t *TopK) Sketch() *CountSketch { return t.cs }

// Top returns the tracked items in descending estimate order.
func (t *TopK) Top() []ItemCount {
	entries := t.heap.Items()
	out := make([]ItemCount, len(entries))
	for i, e := range entries {
		out[i] = ItemCount{Item: e.Item, Count: e.Count}
	}
	return out
}

// ChangeDetector sketches two stream epochs with shared hashes and answers
// frequency-difference queries from their subtraction (§V and Fig. 15c,d).
type ChangeDetector struct {
	before, after *CountSketch
	diffed        bool
}

// NewChangeDetector returns a detector over two Count Sketches of opt; it
// panics on Options a CountSketchOf spec would reject (opt.Merge must be
// sum, the default).
func NewChangeDetector(opt Options) *ChangeDetector {
	if err := opt.validateFor(kindCountSketch); err != nil {
		panic(err.Error())
	}
	return &ChangeDetector{before: buildCountSketch(opt), after: buildCountSketch(opt)}
}

// ObserveBefore records an item in the first epoch.
func (d *ChangeDetector) ObserveBefore(item uint64) { d.mustOpen(); d.before.Increment(item) }

// ObserveAfter records an item in the second epoch.
func (d *ChangeDetector) ObserveAfter(item uint64) { d.mustOpen(); d.after.Increment(item) }

func (d *ChangeDetector) mustOpen() {
	if d.diffed {
		panic("salsa: ChangeDetector already finalized")
	}
}

// Change returns the estimated frequency change (after − before) of item.
// The first call finalizes the detector: the epoch sketches are subtracted
// in place and no further observations are accepted.
func (d *ChangeDetector) Change(item uint64) int64 {
	if !d.diffed {
		d.after.Subtract(d.before)
		d.diffed = true
	}
	return d.after.Query(item)
}
