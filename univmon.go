package salsa

import (
	"salsa/internal/univmon"
)

// maxUnivMonLevels bounds the level stack: level j samples items whose j
// lowest hash bits are all ones, so more than 64 levels could never be
// reached by a 64-bit sampling hash.
const maxUnivMonLevels = 64

// UnivMon estimates any Stream-PolyLog function of the frequency vector —
// entropy, frequency moments, distinct count — from a single pass (§III):
// a stack of Count Sketches over geometrically halving substreams, each
// paired with a top-k heap, combined by the recursive G-sum estimator. The
// paper's "SALSA UnivMon" is this with ModeSALSA rows (the default).
//
// UnivMon is a Cash Register sketch: Update panics on negative counts.
type UnivMon struct {
	um     *univmon.Sketch
	opt    Options
	levels int
	k      int
}

// buildUnivMon realizes a UnivMonOf spec.
func buildUnivMon(opt Options, levels, heapK int) *UnivMon {
	opt = opt.withDefaults(5, MergeSum)
	um := univmon.New(univmon.Config{
		Levels: levels,
		Depth:  opt.Depth,
		Width:  opt.Width,
		HeapK:  heapK,
		Rows:   signedRowSpec(opt),
		Seed:   opt.Seed,
	})
	return &UnivMon{um: um, opt: opt, levels: levels, k: heapK}
}

// Update adds count occurrences of item; count must be non-negative.
func (u *UnivMon) Update(item uint64, count int64) { u.um.UpdateWeighted(item, count) }

// UpdateBatch adds count occurrences of every item, in order.
func (u *UnivMon) UpdateBatch(items []uint64, count int64) {
	for _, x := range items {
		u.um.UpdateWeighted(x, count)
	}
}

// Process records one unit-weight arrival.
func (u *UnivMon) Process(item uint64) { u.um.Update(item) }

// Entropy estimates the empirical entropy of the frequency vector.
func (u *UnivMon) Entropy() float64 { return u.um.Entropy() }

// Moment estimates the frequency moment Fp.
func (u *UnivMon) Moment(p float64) float64 { return u.um.Moment(p) }

// Distinct estimates the number of distinct items F0.
func (u *UnivMon) Distinct() float64 { return u.um.Distinct() }

// Volume returns the number of processed arrivals N.
func (u *UnivMon) Volume() uint64 { return u.um.Volume() }

// Levels returns the number of Count Sketch levels.
func (u *UnivMon) Levels() int { return u.levels }

// HeapK returns the per-level heavy-hitter heap capacity.
func (u *UnivMon) HeapK() int { return u.k }

// Options returns the per-level sketch Options with defaults applied.
func (u *UnivMon) Options() Options { return u.opt }

// HeavyHitters returns the tracked items with the largest estimates, ranked
// by topk.Rank.
func (u *UnivMon) HeavyHitters() []ItemCount { return itemCounts(u.um.HeavyHitters()) }

// MemoryBits returns the total footprint of the level sketches.
func (u *UnivMon) MemoryBits() int { return u.um.SizeBits() }
