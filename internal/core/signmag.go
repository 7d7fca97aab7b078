package core

// SalsaSign is a SALSA counter array of signed counters for the Count
// Sketch. Counters are stored in sign-magnitude representation (most
// significant bit = sign) rather than two's complement so that the overflow
// event is symmetric in sign, which is what keeps the SALSA Count Sketch
// unbiased (Lemma V.4). An s·2^ℓ-bit counter overflows when its magnitude
// would exceed 2^(s·2^ℓ−1)−1, and merges with sum semantics; max-merge is
// not meaningful for signed counters.
type SalsaSign struct {
	salsaArray
}

// NewSalsaSign returns a signed SALSA array of width base counters of s bits
// each (s a power of two in {2, ..., 32}; one bit is the sign).
func NewSalsaSign(width int, s uint, compact bool) *SalsaSign {
	return &SalsaSign{newSalsaArray(width, s, 2, compact, nil, nil)}
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
