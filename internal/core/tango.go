package core

import (
	"fmt"

	"salsa/internal/bitvec"
)

// Tango is the fine-grained variant of SALSA (§IV, "Fine-grained Counter
// Merges"): counters grow one s-bit cell at a time instead of doubling.
// The merge bit m[j] records that cells j and j+1 belong to the same
// counter, and the merge direction always works toward the smallest
// enclosing power-of-two-aligned block, so that a Tango counter is at all
// times contained in the counter SALSA would have built from the same
// updates. Counter values are capped at 64 bits.
type Tango struct {
	s      uint
	width  int
	policy MergePolicy
	link   *bitvec.Vector // link.Get(j): cells j and j+1 are one counter
	words  []uint64
	merges uint64
}

// NewTango returns a Tango array of width base counters of s bits each
// (s a power of two in {1, .., 32}); width must be a power of two so block
// alignment is defined across the whole array.
func NewTango(width int, s uint, policy MergePolicy) *Tango {
	return newTangoIn(width, s, policy, nil, nil)
}

// newTangoIn is NewTango over caller-provided backing storage: words holds
// the counter cells and linkWords the merge-link bits (both nil allocates).
func newTangoIn(width int, s uint, policy MergePolicy, words, linkWords []uint64) *Tango {
	if !validBits(s, 32) {
		panic(fmt.Sprintf("core: invalid Tango base counter size %d", s))
	}
	if width <= 0 || width&(width-1) != 0 {
		panic(fmt.Sprintf("core: Tango width %d must be a power of two", width))
	}
	var link *bitvec.Vector // bit width-1 unused
	if linkWords != nil {
		link = bitvec.NewIn(width, linkWords)
	} else {
		link = bitvec.New(width)
	}
	if words == nil {
		words = make([]uint64, counterWords(width, s))
	}
	return &Tango{
		s:      s,
		width:  width,
		policy: policy,
		link:   link,
		words:  words,
	}
}

// Width returns the number of base counter slots.
func (t *Tango) Width() int { return t.width }

// BaseBits returns s, the initial per-counter size in bits.
func (t *Tango) BaseBits() uint { return t.s }

// Policy returns the merge policy.
func (t *Tango) Policy() MergePolicy { return t.policy }

// SizeBits returns the memory footprint in bits including the one merge bit
// per counter.
func (t *Tango) SizeBits() int { return t.width*int(t.s) + t.width }

// Merges returns the number of cell-absorptions performed so far.
func (t *Tango) Merges() uint64 { return t.merges }

// Span returns the base-cell range [lo, hi] of the counter containing cell i
// by scanning the merge bits outward until unset bits are found (§IV).
//
//salsa:hotpath
func (t *Tango) Span(i int) (lo, hi int) {
	lo, hi = i, i
	for lo > 0 && t.link.Get(lo-1) {
		lo--
	}
	for hi < t.width-1 && t.link.Get(hi) {
		hi++
	}
	return lo, hi
}

// spanBits returns the bit-size of a span of n cells.
//
//salsa:hotpath
func (t *Tango) spanBits(n int) uint { return uint(n) * t.s }

// readCounter reads the value of the counter spanning cells [lo, hi]. For
// spans wider than 64 bits only the low 64 bits hold the (saturating) value.
//
//salsa:hotpath
func (t *Tango) readCounter(lo, hi int) uint64 {
	n := t.spanBits(hi - lo + 1)
	if n > 64 {
		n = 64
	}
	return readSpan(t.words, uint(lo)*t.s, n)
}

// writeCounter writes v into the counter spanning cells [lo, hi], zeroing
// any bits of the span beyond 64.
//
//salsa:hotpath
func (t *Tango) writeCounter(lo, hi int, v uint64) {
	n := t.spanBits(hi - lo + 1)
	if n > 64 {
		zeroSpan(t.words, uint(lo)*t.s+64, n-64)
		n = 64
	}
	writeSpan(t.words, uint(lo)*t.s, n, v)
}

// fits reports whether v is representable in a span of n cells.
//
//salsa:hotpath
func (t *Tango) fits(v uint64, cells int) bool {
	b := t.spanBits(cells)
	return b >= 64 || v <= maxValue(b)
}

// Value returns the value of the counter containing cell i.
//
//salsa:hotpath
func (t *Tango) Value(i int) uint64 {
	lo, hi := t.Span(i)
	return t.readCounter(lo, hi)
}

// Add adds v to the counter containing cell i, absorbing neighbor cells on
// overflow. Negative v subtracts (SumMerge only), clamping at zero.
//
//salsa:hotpath
func (t *Tango) Add(i int, v int64) {
	lo, hi := t.Span(i)
	cur := t.readCounter(lo, hi)
	if v < 0 {
		if t.policy != SumMerge {
			panic("core: negative update on a max-merge Tango array")
		}
		d := uint64(-v)
		if d >= cur {
			cur = 0
		} else {
			cur -= d
		}
		t.writeCounter(lo, hi, cur)
		return
	}
	t.store(lo, hi, satAdd(cur, uint64(v)))
}

// SetAtLeast raises the counter containing cell i to at least v.
//
//salsa:hotpath
func (t *Tango) SetAtLeast(i int, v uint64) {
	lo, hi := t.Span(i)
	if v <= t.readCounter(lo, hi) {
		return
	}
	t.store(lo, hi, v)
}

// store places nv in the counter spanning [lo, hi], absorbing neighbor
// counters one target cell at a time until nv fits.
//
//salsa:hotpath
func (t *Tango) store(lo, hi int, nv uint64) {
	for !t.fits(nv, hi-lo+1) {
		dir, ok := t.growDirection(lo, hi)
		if !ok {
			nv = ^uint64(0) // the whole array is one counter; saturate
			break
		}
		var nlo, nhi int
		if dir < 0 {
			nlo, nhi = t.Span(lo - 1)
			t.link.Set(lo - 1)
		} else {
			nlo, nhi = t.Span(hi + 1)
			t.link.Set(hi)
		}
		other := t.readCounter(nlo, nhi)
		if t.policy == SumMerge {
			nv = satAdd(nv, other)
		} else if other > nv {
			nv = other
		}
		if dir < 0 {
			lo = nlo
		} else {
			hi = nhi
		}
		t.merges++
	}
	t.writeCounter(lo, hi, nv)
}

// growDirection picks which neighbor cell to absorb, mimicking SALSA's
// alignment (§IV): grow toward completing the smallest power-of-two-aligned
// block containing the span; once the span is a full block, grow toward the
// parent block's other half.
//
//salsa:hotpath
func (t *Tango) growDirection(lo, hi int) (dir int, ok bool) {
	if lo == 0 && hi == t.width-1 {
		return 0, false
	}
	bSize := 1
	var bStart int
	for {
		bStart = lo &^ (bSize - 1)
		if hi < bStart+bSize {
			break
		}
		bSize <<= 1
	}
	if lo == bStart && hi == bStart+bSize-1 {
		// Span is exactly the block; grow toward the sibling half of the
		// parent block.
		parentStart := bStart &^ (2*bSize - 1)
		if parentStart == bStart {
			if hi+1 < t.width {
				return 1, true
			}
			return -1, true
		}
		if lo > 0 {
			return -1, true
		}
		return 1, true
	}
	// Span is a proper sub-range of the block; finish covering it. The
	// growth rule keeps the uncovered cells on one side only.
	if lo > bStart {
		return -1, true
	}
	return 1, true
}

// Reset zeroes every counter and clears the merge links, restoring the
// freshly-constructed state; the backing memory is reused (the
// sliding-window bucket-rotation primitive).
func (t *Tango) Reset() {
	for i := range t.words {
		t.words[i] = 0
	}
	t.link.Reset()
	t.merges = 0
}

// SameGeometry reports whether other can merge with t: decoders use it to
// reject payload combinations MergeFrom would panic on.
func (t *Tango) SameGeometry(other *Tango) bool {
	return t.width == other.width && t.s == other.s && t.policy == other.policy
}

// MergeFrom adds other into t counter-wise, producing the sketch-union row
// s(A∪B) with the policy's combine semantics. For every counter of other, t
// first grows its own counter until the span is covered — absorbing
// neighbors with the same deterministic direction rule overflow merges use,
// so merged layouts stay reachable Tango states — then folds the value in,
// triggering further growth if the combined value overflows the span.
func (t *Tango) MergeFrom(other *Tango) {
	if !t.SameGeometry(other) {
		panic("core: Tango geometry/policy mismatch")
	}
	other.Counters(func(lo, hi int, val uint64) bool {
		mlo, mhi := t.coverSpan(lo, hi)
		cur := t.readCounter(mlo, mhi)
		if t.policy == SumMerge {
			cur = satAdd(cur, val)
		} else if val > cur {
			cur = val
		}
		t.store(mlo, mhi, cur)
		return true
	})
}

// coverSpan grows the counter containing lo until its span covers [lo, hi]
// and returns the resulting span. Absorbed neighbor values combine with the
// policy's semantics, exactly as overflow growth in store does.
func (t *Tango) coverSpan(lo, hi int) (int, int) {
	mlo, mhi := t.Span(lo)
	for mhi < hi {
		dir, ok := t.growDirection(mlo, mhi)
		if !ok {
			break
		}
		cur := t.readCounter(mlo, mhi)
		var nlo, nhi int
		if dir < 0 {
			nlo, nhi = t.Span(mlo - 1)
			t.link.Set(mlo - 1)
		} else {
			nlo, nhi = t.Span(mhi + 1)
			t.link.Set(mhi)
		}
		nb := t.readCounter(nlo, nhi)
		if t.policy == SumMerge {
			cur = satAdd(cur, nb)
		} else if nb > cur {
			cur = nb
		}
		if dir < 0 {
			mlo = nlo
		} else {
			mhi = nhi
		}
		t.merges++
		t.writeCounter(mlo, mhi, cur)
	}
	return mlo, mhi
}

// Counters calls fn for every counter in cell order with its span and
// value, stopping early if fn returns false.
func (t *Tango) Counters(fn func(lo, hi int, val uint64) bool) {
	for i := 0; i < t.width; {
		lo, hi := t.Span(i)
		if !fn(lo, hi, t.readCounter(lo, hi)) {
			return
		}
		i = hi + 1
	}
}
