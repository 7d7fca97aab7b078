package core

import (
	"fmt"
	"math/bits"
)

// SalsaSign is a SALSA counter array of signed counters for the Count
// Sketch. Counters are stored in sign-magnitude representation (most
// significant bit = sign) rather than two's complement so that the overflow
// event is symmetric in sign, which is what keeps the SALSA Count Sketch
// unbiased (Lemma V.4). An s·2^ℓ-bit counter overflows when its magnitude
// would exceed 2^(s·2^ℓ−1)−1, and merges with sum semantics; max-merge is
// not meaningful for signed counters.
type SalsaSign struct {
	s      uint
	width  int
	maxLvl uint
	lay    layout
	// blWords is the simple encoding's merge-bit words, kept for a
	// devirtualized level() fast path; nil under the compact encoding.
	blWords []uint64
	words   []uint64
	merges  uint64
}

// NewSalsaSign returns a signed SALSA array of width base counters of s bits
// each (s a power of two in {2, ..., 32}; one bit is the sign).
func NewSalsaSign(width int, s uint, compact bool) *SalsaSign {
	return newSalsaSignIn(width, s, compact, nil, nil)
}

// newSalsaSignIn is NewSalsaSign over caller-provided backing storage: words
// holds the counters and layWords the simple encoding's merge bits (both nil
// allocates; layWords is ignored under the compact encoding).
func newSalsaSignIn(width int, s uint, compact bool, words, layWords []uint64) *SalsaSign {
	if !validBits(s, 32) || s < 2 {
		panic(fmt.Sprintf("core: invalid signed SALSA base counter size %d", s))
	}
	maxLvl := uint(bits.TrailingZeros(64 / s))
	if width <= 0 || width%(1<<maxLvl) != 0 {
		panic(fmt.Sprintf("core: SALSA width %d must be a positive multiple of %d", width, 1<<maxLvl))
	}
	var lay layout
	var blWords []uint64
	if compact {
		lay = newCompactLayout(width, maxLvl)
	} else {
		var bl *bitLayout
		if layWords == nil {
			bl = newBitLayout(width, maxLvl)
		} else {
			bl = newBitLayoutIn(width, maxLvl, layWords)
		}
		lay = bl
		blWords = bl.bits.Words()
	}
	if words == nil {
		words = make([]uint64, counterWords(width, s))
	}
	return &SalsaSign{
		s:       s,
		width:   width,
		maxLvl:  maxLvl,
		lay:     lay,
		blWords: blWords,
		words:   words,
	}
}

// level is (*Salsa).level for the signed array.
//
//salsa:hotpath
func (c *SalsaSign) level(i int) uint {
	words := c.blWords
	if words == nil {
		return c.lay.level(i)
	}
	return firstLevel(words[i>>6], uint(i), c.maxLvl)
}

// Width returns the number of base counter slots.
func (c *SalsaSign) Width() int { return c.width }

// BaseBits returns s, the initial per-counter size in bits.
func (c *SalsaSign) BaseBits() uint { return c.s }

// Compact reports whether merges are recorded in the compact encoding.
func (c *SalsaSign) Compact() bool { return c.blWords == nil }

// SizeBits returns the memory footprint in bits including encoding overhead.
func (c *SalsaSign) SizeBits() int { return c.width*int(c.s) + c.lay.overheadBits() }

// Merges returns the number of merge operations performed so far.
func (c *SalsaSign) Merges() uint64 { return c.merges }

// Level returns the merge level of the counter containing base slot i.
func (c *SalsaSign) Level(i int) uint { return c.lay.level(i) }

// Reset zeroes every counter and un-merges the layout, restoring the
// freshly-constructed state; the backing memory is reused.
func (c *SalsaSign) Reset() {
	for i := range c.words {
		c.words[i] = 0
	}
	c.lay.reset()
	c.merges = 0
}

// maxMag returns the largest representable magnitude at the given size.
//
//salsa:hotpath
func maxMag(size uint) int64 { return int64(maxValue(size) >> 1) }

// decodeSM converts a raw sign-magnitude field of the given size to int64.
//
//salsa:hotpath
func decodeSM(raw uint64, size uint) int64 {
	mag := int64(raw & (maxValue(size) >> 1))
	if raw>>(size-1)&1 == 1 {
		return -mag
	}
	return mag
}

// encodeSM converts v (|v| ≤ maxMag(size)) to a raw sign-magnitude field.
//
//salsa:hotpath
func encodeSM(v int64, size uint) uint64 {
	if v < 0 {
		return uint64(-v) | 1<<(size-1)
	}
	return uint64(v)
}

// Value returns the value of the counter containing base slot i.
//
//salsa:hotpath
func (c *SalsaSign) Value(i int) int64 {
	lvl := c.level(i)
	start := i &^ (1<<lvl - 1)
	size := c.s << lvl
	return decodeSM(readAligned(c.words, uint(start)*c.s, size), size)
}

// Add adds v (of either sign) to the counter containing base slot i,
// merging when the magnitude overflows.
//
//salsa:hotpath
func (c *SalsaSign) Add(i int, v int64) {
	lvl := c.level(i)
	start := i &^ (1<<lvl - 1)
	size := c.s << lvl
	cur := decodeSM(readAligned(c.words, uint(start)*c.s, size), size)
	c.store(start, lvl, satAddSigned(cur, v))
}

// store places nv into the counter at (start, lvl), merging upward until
// the magnitude fits; merged values are the signed sum of the parts.
//
//salsa:hotpath
func (c *SalsaSign) store(start int, lvl uint, nv int64) {
	for {
		size := c.s << lvl
		if nv >= -maxMag(size) && nv <= maxMag(size) {
			writeAligned(c.words, uint(start)*c.s, size, encodeSM(nv, size))
			return
		}
		if size >= 64 {
			// Saturate at the 63-bit magnitude limit.
			if nv > 0 {
				nv = maxMag(64)
			} else {
				nv = -maxMag(64)
			}
			writeAligned(c.words, uint(start)*c.s, size, encodeSM(nv, size))
			return
		}
		sibStart := start ^ (1 << lvl)
		nv = satAddSigned(nv, c.blockSum(sibStart, lvl))
		lvl++
		start &^= 1<<lvl - 1
		c.lay.mergeTo(start, lvl)
		writeAligned(c.words, uint(start)*c.s, c.s<<lvl, 0)
		c.merges++
	}
}

// blockSum returns the signed sum of all counters inside the 2^lvl-aligned
// block starting at start.
//
//salsa:hotpath
func (c *SalsaSign) blockSum(start int, lvl uint) int64 {
	var total int64
	end := start + 1<<lvl
	for i := start; i < end; {
		l := c.lay.level(i)
		size := c.s << l
		total = satAddSigned(total, decodeSM(readAligned(c.words, uint(i)*c.s, size), size))
		i += 1 << l
	}
	return total
}

// Counters calls fn for every counter in slot order, stopping early if fn
// returns false.
func (c *SalsaSign) Counters(fn func(start int, lvl uint, val int64) bool) {
	for i := 0; i < c.width; {
		lvl := c.lay.level(i)
		size := c.s << lvl
		if !fn(i, lvl, decodeSM(readAligned(c.words, uint(i)*c.s, size), size)) {
			return
		}
		i += 1 << lvl
	}
}

// raiseTo merges the counter containing slot i upward to the target level.
func (c *SalsaSign) raiseTo(i int, target uint) {
	for {
		lvl := c.lay.level(i)
		if lvl >= target {
			return
		}
		start := i &^ (1<<lvl - 1)
		size := c.s << lvl
		cur := decodeSM(readAligned(c.words, uint(start)*c.s, size), size)
		cur = satAddSigned(cur, c.blockSum(start^(1<<lvl), lvl))
		lvl++
		start &^= 1<<lvl - 1
		c.lay.mergeTo(start, lvl)
		writeAligned(c.words, uint(start)*c.s, c.s<<lvl, 0)
		c.merges++
		c.store(start, lvl, cur)
	}
}

// MergeFrom adds scale times other into c counter-wise; scale is +1 for the
// sketch union s(A∪B) and −1 for the difference s(A\B) used by change
// detection (§V). The layout becomes the union of both layouts. For
// simple-encoding rows both scales run word-parallel over the
// layout-matching, non-negative counter words (see merge.go).
func (c *SalsaSign) MergeFrom(other *SalsaSign, scale int64) {
	if scale != 1 && scale != -1 {
		panic("core: scale must be ±1")
	}
	if !c.SameGeometry(other) {
		panic("core: SALSA geometry mismatch")
	}
	if scale == 1 && c.mergeFastSigned(other) {
		return
	}
	if scale == -1 && c.subtractFastSigned(other) {
		return
	}
	c.mergeFromGeneric(other, scale)
}

// mergeFromGeneric is the layout-unifying reference merge; mergeFastSigned
// must stay byte-for-byte equivalent to it when the layouts already match.
func (c *SalsaSign) mergeFromGeneric(other *SalsaSign, scale int64) {
	other.Counters(func(start int, lvl uint, val int64) bool {
		if c.lay.level(start) < lvl {
			c.raiseTo(start, lvl)
		}
		return true
	})
	c.mergeCounters(other, scale)
}

// SameGeometry reports whether other can merge with c: decoders use it to
// reject payload combinations MergeFrom would panic on.
func (c *SalsaSign) SameGeometry(other *SalsaSign) bool {
	return c.width == other.width && c.s == other.s
}

// mergeCounters is the value pass of MergeFrom, after layouts are unified.
func (c *SalsaSign) mergeCounters(other *SalsaSign, scale int64) {
	other.Counters(func(start int, lvl uint, val int64) bool {
		c.Add(start, scale*val)
		return true
	})
}
