package salsa

import (
	"salsa/internal/sketch"
	"salsa/internal/topk"
)

// CountMin is a Count-Min Sketch (or, via ConservativeOf, a Conservative
// Update Sketch: CMS accuracy improved by only raising the counters that
// constrain the estimate, §III) over the configured counter backend. It
// overestimates: truth ≤ Query(x), with the error bounds of the underlying
// scheme (Theorems V.1–V.3 of the paper for the SALSA/Tango backends).
type CountMin struct {
	sk           *sketch.CMS
	opt          Options
	conservative bool
}

// buildCountMin realizes a CountMinOf/ConservativeOf leaf. By default
// SALSA mode uses max-merge, which is correct for the Cash Register
// streams (non-negative updates) most callers have, and for Conservative
// Update, which is restricted to that model (Theorem V.3); set Merge:
// MergeSum for Strict Turnstile streams with decrements, and for sketches
// that will be merged/subtracted.
func buildCountMin(opt Options, conservative bool) *CountMin {
	opt = opt.withDefaults(4, MergeMax)
	return &CountMin{sk: cmsRingOps(opt, conservative).New(), opt: opt, conservative: conservative}
}

func rowSpec(opt Options) sketch.RowSpec {
	switch opt.Mode {
	case ModeBaseline:
		return sketch.FixedRow(opt.CounterBits)
	case ModeTango:
		return sketch.TangoRow(opt.CounterBits, opt.policy())
	default:
		return sketch.SalsaRow(opt.CounterBits, opt.policy(), opt.CompactEncoding)
	}
}

// Update adds count occurrences of item. Negative counts are allowed only
// with MergeSum (Strict Turnstile) and never in conservative mode.
//
//salsa:hotpath
func (c *CountMin) Update(item uint64, count int64) { c.sk.Update(item, count) }

// Increment adds one occurrence of item.
//
//salsa:hotpath
func (c *CountMin) Increment(item uint64) { c.sk.Update(item, 1) }

// Query returns the frequency estimate for item (an overestimate).
//
//salsa:hotpath
func (c *CountMin) Query(item uint64) uint64 { return c.sk.Query(item) }

// UpdateBatch adds count occurrences of every item, in order. It leaves the
// sketch in the identical state as single Updates but hashes and updates
// row-at-a-time, the fast path for bulk ingestion.
//
//salsa:hotpath
func (c *CountMin) UpdateBatch(items []uint64, count int64) { c.sk.UpdateBatch(items, count) }

// IncrementBatch adds one occurrence of every item, in order.
//
//salsa:hotpath
func (c *CountMin) IncrementBatch(items []uint64) { c.sk.UpdateBatch(items, 1) }

// QueryBatch writes the estimate of items[j] into dst[j] and returns dst,
// appending if dst is short (pass nil to allocate).
//
//salsa:hotpath
func (c *CountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	return c.sk.QueryBatch(items, dst)
}

// UpdateBytes and QueryBytes are Update/Query for byte-slice keys.
//
//salsa:hotpath
func (c *CountMin) UpdateBytes(key []byte, count int64) { c.sk.Update(KeyBytes(key), count) }

// QueryBytes returns the frequency estimate for a byte-slice key.
//
//salsa:hotpath
func (c *CountMin) QueryBytes(key []byte) uint64 { return c.sk.Query(KeyBytes(key)) }

// MemoryBits returns the sketch footprint in bits, including the SALSA
// merge-encoding overhead.
func (c *CountMin) MemoryBits() int { return c.sk.SizeBits() }

// Depth and Width return the sketch geometry.
func (c *CountMin) Depth() int { return c.sk.Depth() }

// Width returns the per-row slot count.
func (c *CountMin) Width() int { return c.sk.Width() }

// Options returns the configuration the sketch was built with.
func (c *CountMin) Options() Options { return c.opt }

// Merge folds other into c, yielding a sketch of the union stream s(A∪B).
// Both sketches must share Options (including Seed).
func (c *CountMin) Merge(other *CountMin) { c.sk.MergeFrom(other.sk) }

// Subtract removes other from c, yielding s(A\B). Valid in the Strict
// Turnstile model (MergeSum) when other's stream is contained in c's.
func (c *CountMin) Subtract(other *CountMin) { c.sk.SubtractFrom(other.sk) }

// Distinct estimates the number of distinct items with Linear Counting over
// the rows' zero-counter fractions (§III), using the paper's optimistic
// merged-counter heuristic for SALSA rows. It fails once no counters are
// zero (load beyond Linear Counting's range).
func (c *CountMin) Distinct() (float64, error) { return c.sk.DistinctLinearCounting() }

// Monitor couples a CountMin with a top-k heap for one-pass heavy-hitter
// tracking (§III, "Finding Heavy Hitters"): each processed item's
// post-update estimate is offered to the heap. The conservative update
// returns that estimate from its raise pass, so an item is hashed and
// probed once, and items that cannot enter a full heap skip it entirely.
type Monitor struct {
	cm   *CountMin
	heap *topk.Heap
}

// buildMonitor realizes a MonitorOf leaf.
func buildMonitor(opt Options, k int) *Monitor {
	return &Monitor{cm: buildCountMin(opt, true), heap: topk.New(k)}
}

// Process records one occurrence of item and refreshes its heap entry.
func (m *Monitor) Process(item uint64) { m.Update(item, 1) }

// Update records count occurrences of item and refreshes its heap entry;
// with it Monitor satisfies Sketch and can back a Sharded tracker.
func (m *Monitor) Update(item uint64, count int64) {
	offerEstimate(m.heap, item, m.cm.sk.UpdateEstimate(item, count))
}

// offerEstimate offers item's post-update estimate to h, skipping the
// Offer — and its membership lookup — when h is full and est ranks below
// its minimum. The skip is exact for the conservative sketches behind every
// Monitor: under non-negative updates an estimate never decreases, so each
// tracked entry's count is at most its item's current estimate, and an item
// estimated below the minimum is untracked and cannot displace it. (Only
// subtracting from the sketch behind the Monitor's back breaks that
// premise.) Estimates past MaxInt64 wrap negative in the heap's int64
// counts and always take the Offer.
func offerEstimate(h *topk.Heap, item, est uint64) {
	if c := int64(est); c < 0 || !h.Full() || c >= h.Min() {
		h.Offer(item, c)
	}
}

// UpdateBatch records count occurrences of every item, in order. The heap
// refresh couples items, so this is a per-item loop kept for the Sketch
// interface; identical to sequential Updates.
func (m *Monitor) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		m.Update(x, count)
	}
}

// MemoryBits returns the underlying sketch footprint in bits.
func (m *Monitor) MemoryBits() int { return m.cm.MemoryBits() }

// Sketch exposes the underlying CountMin for point queries.
func (m *Monitor) Sketch() *CountMin { return m.cm }

// ItemCount is a tracked item with its frequency estimate.
type ItemCount struct {
	Item  uint64
	Count int64
}

// Top returns the tracked items in descending estimate order.
func (m *Monitor) Top() []ItemCount {
	entries := m.heap.Items()
	out := make([]ItemCount, len(entries))
	for i, e := range entries {
		out[i] = ItemCount{Item: e.Item, Count: e.Count}
	}
	return out
}

// HeavyHitters returns the tracked items whose estimate is at least
// phi times the volume processed so far.
func (m *Monitor) HeavyHitters(phi float64, volume uint64) []ItemCount {
	threshold := phi * float64(volume)
	var out []ItemCount
	for _, e := range m.Top() {
		if float64(e.Count) >= threshold {
			out = append(out, e)
		}
	}
	return out
}

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

func (b *epochMonitorBuf) Reset() {
	b.cm.Reset()
	b.heap.Reset()
}

func (b *epochMonitorBuf) SizeBits() int { return b.cm.SizeBits() }
