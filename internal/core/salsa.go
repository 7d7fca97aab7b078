package core

import "fmt"

// MergePolicy selects how the value of a merged counter is derived from the
// counters it absorbs (§V of the paper).
type MergePolicy int

const (
	// SumMerge sets a merged counter to the sum of its parts. Correct in
	// the Strict Turnstile model (Theorem V.1) and required by Count Sketch.
	SumMerge MergePolicy = iota
	// MaxMerge sets a merged counter to the maximum of its parts. Correct
	// in the Cash Register model (Theorem V.2) and required by the
	// Conservative Update Sketch (Theorem V.3); more accurate than
	// SumMerge when applicable.
	MaxMerge
)

// String returns the policy name used in experiment output.
func (p MergePolicy) String() string {
	switch p {
	case SumMerge:
		return "sum"
	case MaxMerge:
		return "max"
	}
	return fmt.Sprintf("MergePolicy(%d)", int(p))
}

// Salsa is a SALSA counter array: width base counters of s bits each that
// merge with their power-of-two-aligned neighbor block when they overflow,
// doubling in size, up to 64 bits. Counter values saturate at 2^64−1.
//
// A Salsa array is one row of a SALSA sketch; item hashes index base slots,
// and the value of an item is the value of the (possibly merged) counter
// containing its slot.
type Salsa struct {
	salsaArray
	policy MergePolicy
}

// NewSalsa returns a SALSA array of width base counters of s bits each
// (s a power of two in {1, ..., 32}). If compact is true the near-optimal
// Appendix A merge encoding (< 0.594 overhead bits per counter) is used in
// place of the simple one-bit-per-counter encoding; width must then be a
// multiple of 32 (64 for s = 1).
func NewSalsa(width int, s uint, policy MergePolicy, compact bool) *Salsa {
	return &Salsa{salsaArray: newSalsaArray(width, s, 1, compact, nil, nil), policy: policy}
}

// Policy returns the merge policy.
func (c *Salsa) Policy() MergePolicy { return c.policy }

// CounterRange returns the base-slot range [start, start+count) of the
// counter containing slot i.
func (c *Salsa) CounterRange(i int) (start, count int) {
	lvl := c.level(i)
	return i &^ (1<<lvl - 1), 1 << lvl
}

// Value returns the value of the counter containing base slot i.
//
//salsa:hotpath
func (c *Salsa) Value(i int) uint64 {
	lvl := c.level(i)
	start := i &^ (1<<lvl - 1)
	return readAligned(c.words, uint(start)*c.s, c.s<<lvl)
}

// Add adds v to the counter containing base slot i, merging on overflow.
// Negative v subtracts, clamping at zero; it is only permitted with
// SumMerge (the Strict Turnstile policy).
//
//salsa:hotpath
func (c *Salsa) Add(i int, v int64) {
	lvl := c.level(i)
	start := i &^ (1<<lvl - 1)
	size := c.s << lvl
	cur := readAligned(c.words, uint(start)*c.s, size)
	if v < 0 {
		if c.policy != SumMerge {
			panic("core: negative update on a max-merge SALSA array")
		}
		d := uint64(-v)
		if d >= cur {
			cur = 0
		} else {
			cur -= d
		}
		writeAligned(c.words, uint(start)*c.s, size, cur)
		return
	}
	c.store(start, lvl, satAdd(cur, uint64(v)))
}

// SetAtLeast raises the counter containing slot i to at least v, merging on
// overflow. This is the conservative-update primitive; per Theorem V.3 it
// should be used with MaxMerge arrays.
//
//salsa:hotpath
func (c *Salsa) SetAtLeast(i int, v uint64) {
	lvl := c.level(i)
	start := i &^ (1<<lvl - 1)
	if v <= readAligned(c.words, uint(start)*c.s, c.s<<lvl) {
		return
	}
	c.store(start, lvl, v)
}

// store places nv into the counter at (start, lvl), merging upward until it
// fits. nv already includes the counter's previous value.
//
//salsa:hotpath
func (c *Salsa) store(start int, lvl uint, nv uint64) {
	for {
		size := c.s << lvl
		if size >= 64 || nv <= maxValue(size) {
			writeAligned(c.words, uint(start)*c.s, size, nv)
			return
		}
		sibStart := start ^ (1 << lvl)
		if c.policy == SumMerge {
			nv = satAdd(nv, c.blockSum(sibStart, lvl))
		} else if m := c.blockMax(sibStart, lvl); m > nv {
			nv = m
		}
		lvl++
		start &^= 1<<lvl - 1
		c.lay.mergeTo(start, lvl)
		writeAligned(c.words, uint(start)*c.s, c.s<<lvl, 0)
		c.merges++
	}
}

// blockSum returns the saturating sum of all counters inside the
// 2^lvl-aligned block starting at start.
//
//salsa:hotpath
func (c *Salsa) blockSum(start int, lvl uint) uint64 {
	var total uint64
	end := start + 1<<lvl
	for i := start; i < end; {
		l := c.lay.level(i)
		total = satAdd(total, readAligned(c.words, uint(i)*c.s, c.s<<l))
		i += 1 << l
	}
	return total
}

// blockMax returns the maximum over all counters inside the 2^lvl-aligned
// block starting at start.
//
//salsa:hotpath
func (c *Salsa) blockMax(start int, lvl uint) uint64 {
	var max uint64
	end := start + 1<<lvl
	for i := start; i < end; {
		l := c.lay.level(i)
		if v := readAligned(c.words, uint(i)*c.s, c.s<<l); v > max {
			max = v
		}
		i += 1 << l
	}
	return max
}

// Counters calls fn for every counter in slot order with its starting base
// slot, level, and value, stopping early if fn returns false.
func (c *Salsa) Counters(fn func(start int, lvl uint, val uint64) bool) {
	for i := 0; i < c.width; {
		lvl := c.lay.level(i)
		if !fn(i, lvl, readAligned(c.words, uint(i)*c.s, c.s<<lvl)) {
			return
		}
		i += 1 << lvl
	}
}

// ZeroStats describes the zero/merge structure of the array for the SALSA
// Linear Counting heuristic (§V, "count distinct").
type ZeroStats struct {
	// ZeroUnmerged is the number of level-0 base counters with value 0.
	ZeroUnmerged int
	// Unmerged is the number of level-0 base counters.
	Unmerged int
	// MergedSlots[ℓ] is the number of *extra* base slots consumed by
	// level-ℓ counters beyond their first slot, i.e. (2^ℓ−1) per counter.
	MergedSlots map[uint]int
}

// ZeroStats scans the array and returns its zero/merge structure.
func (c *Salsa) ZeroStats() ZeroStats {
	st := ZeroStats{MergedSlots: make(map[uint]int)}
	c.Counters(func(start int, lvl uint, val uint64) bool {
		if lvl == 0 {
			st.Unmerged++
			if val == 0 {
				st.ZeroUnmerged++
			}
		} else {
			st.MergedSlots[lvl] += 1<<lvl - 1
		}
		return true
	})
	return st
}

// EstimatedZeroFraction implements the paper's optimistic heuristic: the
// fraction f of unmerged counters that are zero is assumed to also apply to
// the hidden sub-counters of merged counters (a level-ℓ counter hides
// 2^ℓ−1 of them beyond the at-least-one that is non-zero).
func (c *Salsa) EstimatedZeroFraction() float64 {
	st := c.ZeroStats()
	if st.Unmerged == 0 {
		return 0
	}
	f := float64(st.ZeroUnmerged) / float64(st.Unmerged)
	est := float64(st.ZeroUnmerged)
	for _, extra := range st.MergedSlots {
		est += f * float64(extra)
	}
	return est / float64(c.width)
}

// ZeroFraction returns the estimated fraction of zero base counters; it is
// EstimatedZeroFraction under the interface name shared with Fixed.
func (c *Salsa) ZeroFraction() float64 { return c.EstimatedZeroFraction() }

// Halve divides every counter by two: probabilistically (Binomial(c, 1/2))
// or deterministically (⌊c/2⌋). With split true (MaxMerge arrays only),
// counters whose halved value fits in a smaller size are split back into
// their sub-counters, each holding the halved value (§V, "Should We Split
// Counters?"). This is the AEE downsampling primitive.
func (c *Salsa) Halve(probabilistic bool, rnd func() uint64, split bool) {
	if split && c.policy != MaxMerge {
		panic("core: counter splitting requires MaxMerge")
	}
	for i := 0; i < c.width; {
		lvl := c.lay.level(i)
		blockLen := 1 << lvl
		cur := readAligned(c.words, uint(i)*c.s, c.s<<lvl)
		var nv uint64
		if probabilistic {
			nv = binomialHalf(cur, rnd)
		} else {
			nv = cur / 2
		}
		if split {
			for lvl > 0 && nv <= maxValue(c.s<<(lvl-1)) {
				c.lay.split(i, lvl)
				lvl--
			}
		}
		// Write nv into every (possibly split) counter tiling the block.
		step := 1 << lvl
		for b := i; b < i+blockLen; b += step {
			writeAligned(c.words, uint(b)*c.s, c.s<<lvl, nv)
		}
		i += blockLen
	}
}

// raiseTo merges the counter containing slot i upward until it reaches the
// target level, combining values according to the policy.
func (c *Salsa) raiseTo(i int, target uint) {
	for {
		lvl := c.lay.level(i)
		if lvl >= target {
			return
		}
		start := i &^ (1<<lvl - 1)
		cur := readAligned(c.words, uint(start)*c.s, c.s<<lvl)
		sibStart := start ^ (1 << lvl)
		if c.policy == SumMerge {
			cur = satAdd(cur, c.blockSum(sibStart, lvl))
		} else if m := c.blockMax(sibStart, lvl); m > cur {
			cur = m
		}
		lvl++
		start &^= 1<<lvl - 1
		c.lay.mergeTo(start, lvl)
		writeAligned(c.words, uint(start)*c.s, c.s<<lvl, 0)
		c.merges++
		c.store(start, lvl, cur)
	}
}

// MergeFrom adds other into c counter-wise, producing the sketch-union row
// s(A∪B) (§V, "Merging and Subtracting SALSA Sketches"): the layout becomes
// the union of both layouts and values are combined with the policy's
// semantics, triggering further merges on overflow. For simple-encoding
// rows the merge runs word-parallel, one 64-bit add per counter word, after
// widening sum-merge words whose layouts differ to their union (see
// merge.go); compact-encoding rows walk counters.
func (c *Salsa) MergeFrom(other *Salsa) {
	c.checkGeometry(other)
	if c.mergeFast(other) {
		return
	}
	c.mergeFromGeneric(other)
}

// mergeFromGeneric is the layout-unifying reference merge; mergeFast must
// stay byte-for-byte equivalent to it.
func (c *Salsa) mergeFromGeneric(other *Salsa) {
	other.Counters(func(start int, lvl uint, val uint64) bool {
		if c.lay.level(start) < lvl {
			c.raiseTo(start, lvl)
		}
		return true
	})
	other.Counters(func(start int, lvl uint, val uint64) bool {
		myLvl := c.lay.level(start)
		myStart := start &^ (1<<myLvl - 1)
		cur := readAligned(c.words, uint(myStart)*c.s, c.s<<myLvl)
		if c.policy == SumMerge {
			c.store(myStart, myLvl, satAdd(cur, val))
		} else if val > cur {
			c.store(myStart, myLvl, val)
		}
		return true
	})
}

// SubtractFrom subtracts other from c counter-wise, clamping at zero,
// producing s(A\B) for Strict Turnstile CMS rows where B ⊆ A. The layout
// becomes the union of both layouts. Simple-encoding rows subtract one
// counter word at a time, like MergeFrom.
func (c *Salsa) SubtractFrom(other *Salsa) {
	if c.policy != SumMerge {
		panic("core: subtraction requires SumMerge")
	}
	c.checkGeometry(other)
	if c.subtractFast(other) {
		return
	}
	c.subtractFromGeneric(other)
}

// subtractFromGeneric is the per-counter reference subtraction.
func (c *Salsa) subtractFromGeneric(other *Salsa) {
	other.Counters(func(start int, lvl uint, val uint64) bool {
		if c.lay.level(start) < lvl {
			c.raiseTo(start, lvl)
		}
		return true
	})
	other.Counters(func(start int, lvl uint, val uint64) bool {
		myLvl := c.lay.level(start)
		myStart := start &^ (1<<myLvl - 1)
		cur := readAligned(c.words, uint(myStart)*c.s, c.s<<myLvl)
		if val >= cur {
			cur = 0
		} else {
			cur -= val
		}
		writeAligned(c.words, uint(myStart)*c.s, c.s<<myLvl, cur)
		return true
	})
}

func (c *Salsa) checkGeometry(other *Salsa) {
	if !c.SameGeometry(other) {
		panic("core: SALSA geometry/policy mismatch")
	}
}

// SameGeometry reports whether other can merge with c: decoders use it to
// reject payload combinations MergeFrom would panic on.
func (c *Salsa) SameGeometry(other *Salsa) bool {
	return c.width == other.width && c.s == other.s && c.policy == other.policy
}
