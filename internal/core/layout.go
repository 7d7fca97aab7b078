package core

import "salsa/internal/bitvec"

// A layout tracks which counters of a SALSA array have merged. SALSA merges
// are hierarchical: a level-ℓ counter occupies the 2^ℓ base slots of a
// 2^ℓ-aligned block, and all interior merge state of the block is set.
//
// Two implementations exist: bitLayout, the paper's simple one-bit-per-
// counter encoding (§IV), and compactLayout, the near-optimal encoding of
// Appendix A at 19 bits per 32 counters (< 0.594 bits per counter).
type layout interface {
	// level returns the merge level of the counter containing base slot i:
	// 0 for an unmerged s-bit counter, ℓ for an s·2^ℓ-bit counter.
	level(i int) uint
	// mergeTo records that the 2^lvl-aligned block containing slot i is now
	// a single level-lvl counter (marking all interior merges).
	mergeTo(i int, lvl uint)
	// split undoes the top merge of the level-lvl counter containing slot i,
	// leaving two level-(lvl−1) counters. Used by AEE counter splitting.
	split(i int, lvl uint)
	// overheadBits returns the encoding overhead in bits.
	overheadBits() int
	// clone returns a deep copy.
	clone() layout
	// reset restores the pristine all-unmerged state.
	reset()
}

// bitLayout is the simple SALSA encoding: merge bit m[i] per base counter.
// Block ⟨b, …, b+2^ℓ−1⟩ being merged into one counter is recorded by setting
// m[b + 2^(ℓ−1) − 1]; the invariant that interior merges are also recorded
// lets level() probe exactly one bit per level.
type bitLayout struct {
	bits   *bitvec.Vector
	maxLvl uint
}

func newBitLayout(width int, maxLvl uint) *bitLayout {
	return &bitLayout{bits: bitvec.New(width), maxLvl: maxLvl}
}

// newBitLayoutIn is newBitLayout over caller-provided (zeroed) backing words;
// the arena row constructors use it to co-locate a row's merge bits with its
// counter words.
func newBitLayoutIn(width int, maxLvl uint, words []uint64) *bitLayout {
	return &bitLayout{bits: bitvec.NewIn(width, words), maxLvl: maxLvl}
}

// level probes slot i's merge-bit word with firstLevel: every bit it
// reads lies in the slot's 2^maxLvl-slot block, inside one word.
//
//salsa:hotpath
func (l *bitLayout) level(i int) uint {
	return firstLevel(l.bits.Words()[i>>6], uint(i), l.maxLvl)
}

//salsa:hotpath
func (l *bitLayout) mergeTo(i int, lvl uint) {
	if lvl > l.maxLvl {
		panic("core: merge beyond maximum level")
	}
	start := i &^ (1<<lvl - 1)
	// Mark every interior merge of the block, level by level. Re-marking
	// already-merged sub-blocks is harmless and keeps this simple; merges
	// are rare relative to updates.
	for lev := uint(1); lev <= lvl; lev++ {
		step := 1 << lev
		for b := start; b < start+1<<lvl; b += step {
			l.bits.Set(b + step/2 - 1)
		}
	}
}

// validMergeBits reports whether words, the simple encoding's merge bits
// for width slots of s bits, describe a layout: a set level-ℓ bit (ℓ ≥ 2)
// needs the level-(ℓ−1) bits of both its halves, no bit sits at the last
// slot of a counter word (that would be a counter wider than 64 bits,
// spanning two words), and no bit lies past width. Decoders check it before
// trusting payload bits, because level() and the merge kernels read counter
// extents straight off them.
func validMergeBits(words []uint64, width int, s uint) bool {
	g := laneGeomFor(s)
	last := laneTopMask(g.lanes)
	for _, w := range words {
		if w&last != 0 {
			return false
		}
		for l := uint(2); l <= g.maxLvl; l++ {
			x, d := w&g.levels[l], uint(1)<<(l-2)
			if (x>>d|x<<d)&^w != 0 {
				return false
			}
		}
	}
	if r := width & 63; r != 0 && len(words) > 0 && words[len(words)-1]>>r != 0 {
		return false
	}
	return true
}

func (l *bitLayout) split(i int, lvl uint) {
	if lvl == 0 {
		panic("core: cannot split a base counter")
	}
	start := i &^ (1<<lvl - 1)
	l.bits.Clear(start + 1<<(lvl-1) - 1)
}

func (l *bitLayout) overheadBits() int { return l.bits.Len() }

func (l *bitLayout) clone() layout {
	return &bitLayout{bits: l.bits.Clone(), maxLvl: l.maxLvl}
}

func (l *bitLayout) reset() { l.bits.Reset() }
