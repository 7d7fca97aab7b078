package core

import (
	"fmt"
	"math/bits"

	"salsa/internal/bitvec"
)

// Storage cores. How a row's words are sized, carved from an arena,
// probed for merge levels, encoded, copied and reset does not depend on
// whether its counters read as unsigned or as signed, so each counter
// family keeps its storage in one struct that both of its row types embed
// by value as their first field: salsaArray for Salsa and SalsaSign,
// fixedArray for Fixed and FixedSign. The row types keep the counter
// arithmetic, their payload kind and their counter-size and policy rules.

// salsaArray is the storage of a SALSA row: width base counters of s bits
// packed into words, and the merge layout recording which have joined.
type salsaArray struct {
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

// salsaGeometry is the one SALSA geometry rule: constructors panic when it
// fails and decoders reject the payload. s must be a power of two in
// {minS, ..., 32}; minS is 1 for unsigned counters and 2 for sign-magnitude
// ones, whose top bit is the sign. width must be a positive multiple of
// 2^maxLvl, the base slots of a 64-bit counter, and under the compact
// encoding of its group size. It returns maxLvl.
func salsaGeometry(width int, s, minS uint, compact bool) (maxLvl uint, ok bool) {
	if !validBits(s, 32) || s < minS || width <= 0 {
		return 0, false
	}
	maxLvl = uint(bits.TrailingZeros(64 / s))
	block := 1 << maxLvl
	if compact {
		block = 1 << compactGroupLog(maxLvl)
	}
	return maxLvl, width%block == 0
}

// newSalsaArray returns SALSA row storage over caller-provided backing
// storage: words holds the counters and layWords the simple encoding's
// merge bits (both nil allocates; layWords is ignored under the compact
// encoding, whose layout owns its storage).
func newSalsaArray(width int, s, minS uint, compact bool, words, layWords []uint64) salsaArray {
	maxLvl, ok := salsaGeometry(width, s, minS, compact)
	if !ok {
		panic(fmt.Sprintf("core: invalid SALSA geometry: width %d of %d-bit counters (compact %v)", width, s, compact))
	}
	if words == nil {
		words = make([]uint64, counterWords(width, s))
	}
	c := salsaArray{s: s, width: width, maxLvl: maxLvl, words: words}
	if compact {
		c.lay = newCompactLayout(width, maxLvl)
		return c
	}
	if layWords == nil {
		layWords = make([]uint64, bitvec.WordsFor(width))
	}
	c.lay, c.blWords = newBitLayoutIn(width, maxLvl, layWords), layWords
	return c
}

// Width returns the number of base counter slots.
func (c *salsaArray) Width() int { return c.width }

// BaseBits returns s, the initial per-counter size in bits.
func (c *salsaArray) BaseBits() uint { return c.s }

// Compact reports whether merges are recorded in the compact encoding.
func (c *salsaArray) Compact() bool { return c.blWords == nil }

// SizeBits returns the memory footprint in bits, including the merge
// encoding overhead.
func (c *salsaArray) SizeBits() int { return c.width*int(c.s) + c.lay.overheadBits() }

// Merges returns the number of merge operations performed so far. It is
// not serialized and depends on the path that built the layout: a raise on
// the per-counter path counts once however many blocks it joins, while a
// word MergeFrom or SubtractFrom widens to a union layout counts every
// block joined.
func (c *salsaArray) Merges() uint64 { return c.merges }

// Level returns the merge level of the counter containing base slot i
// (0 = unmerged s-bit counter, ℓ = s·2^ℓ-bit counter).
func (c *salsaArray) Level(i int) uint { return c.level(i) }

// level avoids the layout interface dispatch on the update/query hot path
// for the simple encoding, probing the merge-bit word directly with the
// early-out firstLevel (rowset.go says why the general methods keep it).
//
//salsa:hotpath
func (c *salsaArray) level(i int) uint {
	words := c.blWords
	if words == nil {
		return c.lay.level(i)
	}
	return firstLevel(words[i>>6], uint(i), c.maxLvl)
}

// Reset zeroes every counter and un-merges the layout, restoring the
// freshly-constructed state; the backing memory is reused (the
// sliding-window bucket-rotation primitive).
func (c *salsaArray) Reset() {
	clear(c.words)
	c.lay.reset()
	c.merges = 0
}

// fixedArray is the storage of a baseline row: width counters of exactly
// bits bits each, packed into words.
type fixedArray struct {
	bits  uint
	width int
	words []uint64
}

// newFixedArray returns baseline row storage over caller-provided backing
// words (nil allocates). bits must be a power of two in {minBits, ..., 64};
// minBits is 2 for signed counters, 1 otherwise.
func newFixedArray(width int, bits, minBits uint, words []uint64) fixedArray {
	if !validBits(bits, 64) || bits < minBits {
		panic(fmt.Sprintf("core: invalid fixed counter size %d", bits))
	}
	if width <= 0 {
		panic("core: non-positive width")
	}
	if words == nil {
		words = make([]uint64, counterWords(width, bits))
	}
	return fixedArray{bits: bits, width: width, words: words}
}

// Width returns the number of counters.
func (f *fixedArray) Width() int { return f.width }

// CounterBits returns the per-counter width in bits, a signed counter's
// sign bit included.
func (f *fixedArray) CounterBits() uint { return f.bits }

// SizeBits returns the total memory footprint in bits.
func (f *fixedArray) SizeBits() int { return f.width * int(f.bits) }

// Reset zeroes every counter, restoring the freshly-constructed state; the
// backing memory is reused (the sliding-window bucket-rotation primitive).
func (f *fixedArray) Reset() { clear(f.words) }
