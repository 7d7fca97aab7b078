package core

import (
	"unsafe"

	"salsa/internal/bitvec"
)

// Arena-backed row construction. A d-row sketch built from the per-row
// constructors chases d separately-allocated slabs (plus d merge-bit slabs)
// on every probe; the NewXRows constructors below carve all d rows' counter
// words and merge-encoding words out of one contiguous cache-line-aligned
// allocation instead, so a sketch's whole working set is one linear region.
// Each row's segment starts on a 64-byte cache line, and a row's merge bits
// directly follow its counters, keeping the level-probe word and the counter
// word it guards on neighboring lines.

// arenaAlignWords is the segment alignment in words: 8 words = 64 bytes, one
// cache line on every platform we target.
const arenaAlignWords = 8

// counterWords returns the backing word count of width counters of bits bits
// (the sizing rule every row constructor shares).
func counterWords(width int, bits uint) int {
	return int((uint(width)*bits + 63) / 64)
}

// arena hands out zeroed, cache-line-aligned word segments from one backing
// allocation.
type arena struct {
	words []uint64
	off   int
}

// alignUp rounds n up to the next multiple of arenaAlignWords.
func alignUp(n int) int {
	return (n + arenaAlignWords - 1) &^ (arenaAlignWords - 1)
}

// newArena returns an arena with capacity for totalWords words of aligned
// segments (totalWords must already count each segment rounded via alignUp).
func newArena(totalWords int) *arena {
	raw := make([]uint64, totalWords+arenaAlignWords-1)
	base := 0
	for uintptr(unsafe.Pointer(&raw[base]))%64 != 0 {
		base++
	}
	return &arena{words: raw[base:]}
}

// take returns the next n-word segment, full-slice-capped so appends cannot
// bleed into a neighbor row, and advances to the next cache-line boundary.
func (a *arena) take(n int) []uint64 {
	seg := a.words[a.off : a.off+n : a.off+n]
	a.off += alignUp(n)
	return seg
}

// NewFixedRows returns d Fixed rows of identical geometry backed by one
// contiguous cache-line-aligned arena.
func NewFixedRows(d, width int, bits uint) []*Fixed {
	return fixedRows(d, width, bits, 1, newFixed)
}

// NewFixedSignRows returns d FixedSign rows backed by one contiguous
// cache-line-aligned arena.
func NewFixedSignRows(d, width int, bits uint) []*FixedSign {
	return fixedRows(d, width, bits, 2, newFixedSign)
}

// fixedRows carves d rows of baseline storage out of one arena and wraps
// each as a row type.
func fixedRows[R any](d, width int, bits, minBits uint, row func(fixedArray) R) []R {
	cw := counterWords(width, bits)
	a := newArena(d * alignUp(cw))
	rows := make([]R, d)
	for i := range rows {
		rows[i] = row(newFixedArray(width, bits, minBits, a.take(cw)))
	}
	return rows
}

// NewSalsaRows returns d Salsa rows backed by one contiguous cache-line-
// aligned arena holding, per row, its counter words followed by its simple-
// encoding merge-bit words. The compact encoding keeps its own layout
// storage, so only the counter words share the arena.
func NewSalsaRows(d, width int, s uint, policy MergePolicy, compact bool) []*Salsa {
	return salsaRows(d, width, s, 1, compact, func(a salsaArray) *Salsa {
		return &Salsa{salsaArray: a, policy: policy}
	})
}

// NewSalsaSignRows returns d SalsaSign rows backed by one contiguous
// cache-line-aligned arena (counter words then merge-bit words per row, as
// in NewSalsaRows).
func NewSalsaSignRows(d, width int, s uint, compact bool) []*SalsaSign {
	return salsaRows(d, width, s, 2, compact, func(a salsaArray) *SalsaSign {
		return &SalsaSign{a}
	})
}

// salsaRows carves d rows of SALSA storage out of one arena, each row's
// counter words followed by its simple-encoding merge-bit words, and wraps
// each as a row type.
func salsaRows[R any](d, width int, s, minS uint, compact bool, row func(salsaArray) R) []R {
	cw := counterWords(width, s)
	bw := 0
	if !compact {
		bw = bitvec.WordsFor(width)
	}
	a := newArena(d * (alignUp(cw) + alignUp(bw)))
	rows := make([]R, d)
	for i := range rows {
		words := a.take(cw)
		var layWords []uint64
		if !compact {
			layWords = a.take(bw)
		}
		rows[i] = row(newSalsaArray(width, s, minS, compact, words, layWords))
	}
	return rows
}

// NewTangoRows returns d Tango rows backed by one contiguous cache-line-
// aligned arena (counter cells then link bits per row).
func NewTangoRows(d, width int, s uint, policy MergePolicy) []*Tango {
	cw := counterWords(width, s)
	bw := bitvec.WordsFor(width)
	a := newArena(d * (alignUp(cw) + alignUp(bw)))
	rows := make([]*Tango, d)
	for i := range rows {
		words := a.take(cw)
		rows[i] = newTangoIn(width, s, policy, words, a.take(bw))
	}
	return rows
}
