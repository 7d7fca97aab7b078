// Package window implements the sliding-window machinery shared by the
// public Windowed* sketches: a ring of B bucket sketches rotated by item
// count or caller-driven ticks, answering window queries from an
// incrementally-maintained merged view.
//
// The live window is the B most recent buckets; every update lands in the
// current bucket and a rotation retires the oldest bucket wholesale (its
// memory is Reset and reused as the new current bucket), so the window
// slides at bucket granularity.
//
// The closed buckets (every live bucket except the current one) form a
// queue — rotation dequeues the oldest and enqueues the just-closed bucket —
// and their merge is maintained with the classic two-stack sliding-window
// aggregation: a "back" sketch accumulates newly closed buckets with one
// merge per rotation, and a "front" array holds precomputed suffix merges of
// the older segment, so dequeuing the oldest bucket is a pointer bump. When
// the front runs dry (every B−1 rotations) it is rebuilt from the back
// segment's raw buckets in 2(B−2)−1 merges — so each bucket is merged O(1)
// times per rotation regardless of B, where the previous design rebuilt the
// whole closed merge with B−1 merges on every rotation. A query view is
// rebuilt lazily on the first query after a write as
// merge(frontSuffix, back, current): at most three merges, regardless of B.
//
// This reassociates bucket merges (the view is no longer built strictly
// oldest-to-newest), which is sound because sketch union is associative and
// commutative: saturating non-negative addition and max are both
// order-independent, and a SALSA union's final layout is the least fixpoint
// over its block masses (pinned byte-for-byte by the TestMergeAssociativity*
// suite in internal/core, for all policies and Fixed/Salsa/SalsaSign/Tango).
// The one documented relaxation: signed counter arrays whose mixed-sign
// intermediate sums cross a counter-size (or ±saturation) threshold can
// merge to different layouts under different groupings — every grouping is
// still a valid mass-conserving union, but a windowed Count Sketch fed
// negative updates is guaranteed value-equivalent, not byte-identical, to a
// sequential merge of its buckets. With non-negative updates (and always
// for CMS/CUS) the view stays bit-for-bit identical to a from-scratch
// oldest-to-newest merge, and windowed queries inherit the exact guarantees
// of the backend's merge (Theorems V.1–V.3 for SALSA rows).
package window

import (
	"errors"
	"fmt"
)

// Ops supplies the sketch operations a Ring needs from its bucket type S;
// the public wrappers bind them to *sketch.CMS and *sketch.CountSketch.
type Ops[S any] struct {
	// New returns a fresh, empty bucket sketch. All buckets of one ring
	// must share hash seeds, or they could not merge.
	New func() S
	// Reset restores a bucket to its freshly-constructed state in place.
	Reset func(S)
	// Merge folds src into dst (dst ← dst ∪ src). Merge must be
	// associative and commutative up to the relaxation in the package doc;
	// the ring reassociates bucket merges freely.
	Merge func(dst, src S)
}

// Ring is a rotating ring of B bucket sketches with a lazily-maintained
// merged view of the live window and two-stack aggregation of the closed
// buckets (see the package doc). It is not safe for concurrent use; wrap
// the public windowed types in the Sharded layer for that.
type Ring[S any] struct {
	ops     Ops[S]
	buckets []S
	counts  []uint64 // items recorded per bucket
	cur     int      // index of the current (newest, writable) bucket

	// Two-stack aggregation of the closed-bucket queue. front[k] holds the
	// merge of the flip-time buckets k..B−2 (suffixes toward the newest);
	// front[frontPos] is the live aggregate of the front segment and each
	// rotation pops by incrementing frontPos. back accumulates the backN
	// buckets closed since the last flip. Invariant once rotation starts:
	// frontLen + backN == B−1 with frontLen = B−1−frontPos.
	front    []S
	frontPos int
	frontLow int // lowest front index holding an allocated sketch
	back     S
	backN    int

	view   S // merge of all live buckets; valid iff viewOK
	viewOK bool
	volume uint64 // running Σ counts (live-window item total)

	interval  uint64 // items per bucket; 0 = caller-driven ticks only
	rotations uint64
	onRotate  func(cur int) // optional rotation hook (new current index)
}

// NewRing returns a ring of buckets bucket sketches. interval > 0 rotates
// automatically every interval recorded items; interval == 0 leaves
// rotation to explicit Tick calls.
func NewRing[S any](buckets int, interval uint64, ops Ops[S]) *Ring[S] {
	if buckets <= 0 {
		panic("window: non-positive bucket count")
	}
	r := &Ring[S]{
		ops:      ops,
		buckets:  make([]S, buckets),
		counts:   make([]uint64, buckets),
		back:     ops.New(),
		view:     ops.New(),
		interval: interval,
	}
	for i := range r.buckets {
		r.buckets[i] = ops.New()
	}
	r.initStacks(0)
	return r
}

// initStacks sets the two-stack bookkeeping for a ring that has rotated
// rotations times; the aggregates themselves are rebuilt by the caller
// (they start empty for a fresh ring). Front suffix sketches are allocated
// lazily at the first flip, so small or never-rotating rings never pay for
// them.
func (r *Ring[S]) initStacks(rotations uint64) {
	b := len(r.buckets)
	r.front = make([]S, max(b-1, 0))
	r.frontLow = b - 1
	r.frontPos = b - 1
	r.backN = b - 1
	if b == 1 {
		r.frontPos, r.backN = 0, 0
		return
	}
	if rotations > 0 {
		// Flips fire on rotations r ≡ 1 (mod B−1); p pops have happened
		// since the last one (including the flip rotation's own pop).
		p := int((rotations-1)%uint64(b-1)) + 1
		r.frontPos = p
		r.backN = p
	}
}

// Cur returns the current bucket; the wrapper applies updates to it
// directly and must follow every write with Wrote.
func (r *Ring[S]) Cur() S { return r.buckets[r.cur] }

// CurIndex returns the ring position of the current bucket (the index
// OnRotate reports).
func (r *Ring[S]) CurIndex() int { return r.cur }

// Buckets returns the number of buckets B.
func (r *Ring[S]) Buckets() int { return len(r.buckets) }

// Interval returns the automatic rotation interval (0 = manual).
func (r *Ring[S]) Interval() uint64 { return r.interval }

// Rotations returns the number of rotations performed so far.
func (r *Ring[S]) Rotations() uint64 { return r.rotations }

// Volume returns the number of items recorded in the live window. It is a
// running total maintained by Wrote and Rotate, not an O(B) scan.
func (r *Ring[S]) Volume() uint64 { return r.volume }

// Sketches returns the number of bucket-sized sketches the ring owns at
// steady state: B buckets, the back aggregate and the query view, plus the
// B−2 front suffix aggregates once the first flip has allocated them.
// MemoryBits reporting uses it.
func (r *Ring[S]) Sketches() int {
	return len(r.buckets) + 2 + max(len(r.buckets)-2, 0)
}

// Room returns how many more items the current bucket accepts before the
// ring auto-rotates; ^uint64(0) when rotation is caller-driven. Batch
// writers use it to split batches at rotation boundaries so batched and
// per-item ingestion stay bit-for-bit identical.
func (r *Ring[S]) Room() uint64 {
	if r.interval == 0 {
		return ^uint64(0)
	}
	return r.interval - r.counts[r.cur]
}

// OnRotate registers fn to run after every rotation with the index of the
// new current bucket (already Reset). The windowed heavy-hitter tracker
// uses it to retire the rotated bucket's candidate set.
func (r *Ring[S]) OnRotate(fn func(cur int)) { r.onRotate = fn }

// Wrote records that n items were just applied to the current bucket,
// invalidating the view and auto-rotating when the bucket interval fills.
// n must not overshoot Room.
func (r *Ring[S]) Wrote(n uint64) {
	r.viewOK = false
	r.counts[r.cur] += n
	r.volume += n
	if r.interval != 0 && r.counts[r.cur] >= r.interval {
		r.Rotate()
	}
}

// Rotate slides the window one bucket: the oldest bucket is dequeued from
// the closed-window aggregate (a front-stack pop, rebuilding the front from
// the back segment first if it ran dry) and retired — its sketch Reset for
// reuse as the new current bucket — while the just-closed bucket merges
// into the back aggregate. Amortized cost is O(1) bucket merges per
// rotation regardless of B; a flip rotation peaks at O(B).
func (r *Ring[S]) Rotate() {
	b := len(r.buckets)
	old := r.cur
	r.cur = (r.cur + 1) % b
	if b > 1 {
		if r.frontPos == b-1 {
			r.flip()
		}
		r.frontPos++
		r.ops.Merge(r.back, r.buckets[old])
		r.backN++
	}
	r.volume -= r.counts[r.cur]
	r.ops.Reset(r.buckets[r.cur])
	r.counts[r.cur] = 0
	r.viewOK = false
	r.rotations++
	if r.onRotate != nil {
		r.onRotate(r.cur)
	}
}

// flip rebuilds the front suffix aggregates from the raw closed buckets
// (which at this instant are exactly the back segment) and empties the
// back. It runs while the retiring bucket still holds its data — the
// caller's immediately following pop discards the only entry containing it,
// so entry 0 is never built at all.
func (r *Ring[S]) flip() {
	r.rebuildFront(r.cur, 1)
	r.frontPos = 0
	r.ops.Reset(r.back)
	r.backN = 0
}

// rebuildFront (re)computes front[k] for k in [from, B−1), where flip-age k
// maps to buckets[(base+k)%B], allocating suffix sketches on first use.
// Both flip and RestoreRing go through here with identical merge order, so
// a restored ring's aggregates are byte-for-byte the ones the original ring
// built at its last flip.
func (r *Ring[S]) rebuildFront(base, from int) {
	b := len(r.buckets)
	for k := b - 2; k >= from; k-- {
		if k < r.frontLow {
			r.front[k] = r.ops.New()
			r.frontLow = k
		}
		e := r.front[k]
		r.ops.Reset(e)
		r.ops.Merge(e, r.buckets[(base+k)%b])
		if k < b-2 {
			r.ops.Merge(e, r.front[k+1])
		}
	}
}

// View returns the merge of every live bucket, rebuilding it if any write
// or rotation happened since the last call: one Reset plus at most three
// merges (front suffix, back, current bucket), regardless of B.
func (r *Ring[S]) View() S {
	if !r.viewOK {
		r.ops.Reset(r.view)
		if r.frontPos < len(r.buckets)-1 {
			r.ops.Merge(r.view, r.front[r.frontPos])
		}
		if r.backN > 0 {
			r.ops.Merge(r.view, r.back)
		}
		r.ops.Merge(r.view, r.buckets[r.cur])
		r.viewOK = true
	}
	return r.view
}

// BucketAt returns the bucket at ring position i (0 ≤ i < Buckets), in
// storage order rather than age order; serialization walks positions so a
// restored ring is position-for-position identical.
func (r *Ring[S]) BucketAt(i int) S { return r.buckets[i] }

// CountAt returns the number of items recorded in the bucket at ring
// position i.
func (r *Ring[S]) CountAt(i int) uint64 { return r.counts[i] }

// RestoreRing reconstructs a ring from decoded buckets in storage order,
// the per-bucket item counts, the current-bucket position, and the
// rotation odometer. The two-stack state is a pure function of the odometer
// (flips fire every B−1 rotations), so the back aggregate and the live
// front suffixes are rebuilt exactly as the original ring built them — a
// restored ring's query view and all future rotations are bit-for-bit
// identical to the original's.
func RestoreRing[S any](buckets []S, counts []uint64, cur int, rotations, interval uint64, ops Ops[S]) (*Ring[S], error) {
	if len(buckets) == 0 {
		return nil, errors.New("window: no buckets")
	}
	if len(counts) != len(buckets) {
		return nil, fmt.Errorf("window: %d counts for %d buckets", len(counts), len(buckets))
	}
	if cur < 0 || cur >= len(buckets) {
		return nil, fmt.Errorf("window: current bucket %d out of range [0,%d)", cur, len(buckets))
	}
	r := &Ring[S]{
		ops:       ops,
		buckets:   buckets,
		counts:    append([]uint64(nil), counts...),
		cur:       cur,
		back:      ops.New(),
		view:      ops.New(),
		interval:  interval,
		rotations: rotations,
	}
	for _, c := range r.counts {
		r.volume += c
	}
	r.initStacks(rotations)
	b := len(r.buckets)
	if b > 1 {
		// Fold the back segment — the backN newest closed buckets — in
		// enqueue (oldest-to-newest) order, matching the original's
		// rotation-by-rotation merges.
		for j := b - 1 - r.backN; j <= b-2; j++ {
			r.ops.Merge(r.back, r.buckets[(cur+1+j)%b])
		}
		if r.frontPos < b-1 {
			// Live front suffixes cover flip-ages frontPos..B−2; the flip
			// happened frontPos−1 rotations ago, so flip-age k maps to
			// buckets[(cur+1+k−frontPos)%B].
			base := (cur + 1 - r.frontPos + b) % b
			r.rebuildFront(base, r.frontPos)
		}
	}
	return r, nil
}

// LiveBuckets calls fn for every live bucket in oldest-to-newest order;
// the index is the bucket's ring position (as passed to OnRotate for the
// current bucket). Used by tests and the heavy-hitter candidate union.
func (r *Ring[S]) LiveBuckets(fn func(i int, b S)) {
	b := len(r.buckets)
	for off := 1; off <= b; off++ {
		i := (r.cur + off) % b
		fn(i, r.buckets[i])
	}
}
