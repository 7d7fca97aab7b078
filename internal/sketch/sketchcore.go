package sketch

import (
	"fmt"

	"salsa/internal/hashing"
)

// row is what the sketch core needs of a row; Row and SignedRow embed it,
// and every internal/core row implements it.
type row interface {
	// Width returns the number of addressable slots.
	Width() int
	// SizeBits returns the memory footprint in bits.
	SizeBits() int
	// Reset restores the freshly constructed state, reusing the memory.
	Reset()
	// BinarySize and AppendBinary are the row's own payload codec.
	BinarySize() int
	AppendBinary(buf []byte) ([]byte, error)
}

// sketchCore is the skeleton Count-Min and Count Sketch share, generic over
// their row interface as internal/core's storage cores are over counters:
// the rows, their hash seeds and index mask, the geometry accessors, the
// width rule, the check that two sketches can merge, and the payload
// framing (marshal.go). CMS and CountSketch embed it and keep their kind
// bytes, row-kind tables, per-row geometry match, arithmetic and
// estimators.
type sketchCore[R row] struct {
	rows []R
	// seeds holds one index seed per row; a Count Sketch's sign seeds
	// follow as the second half. The codec writes them in this order.
	seeds []uint64
	mask  uint64 // width − 1
}

// newSketchCore wires rows with their seeds; ok is false when the rows
// break the width rule.
func newSketchCore[R row](rows []R, seeds []uint64) (s sketchCore[R], ok bool) {
	widths := make([]int, len(rows))
	for i, r := range rows {
		widths[i] = r.Width()
	}
	if !validRowWidths(widths) {
		return s, false
	}
	return sketchCore[R]{rows: rows, seeds: seeds, mask: uint64(widths[0] - 1)}, true
}

// mustSketchCore is newSketchCore for the constructors, which panic on
// rows that break the width rule.
func mustSketchCore[R row](rows []R, seeds []uint64) sketchCore[R] {
	s, ok := newSketchCore(rows, seeds)
	if !ok {
		panic("sketch: want one or more rows, all of one power-of-two width")
	}
	return s
}

// validRowWidths is the width rule: at least one row, all of one positive
// power-of-two width, so an index is a hash masked by width − 1.
func validRowWidths(widths []int) bool {
	if len(widths) == 0 {
		return false
	}
	w := widths[0]
	if w <= 0 || w&(w-1) != 0 {
		return false
	}
	for _, v := range widths[1:] {
		if v != w {
			return false
		}
	}
	return true
}

// widen converts concrete rows to the family's row interface I.
func widen[I, T any](rows []T) []I {
	out := make([]I, len(rows))
	for i, r := range rows {
		out[i] = any(r).(I)
	}
	return out
}

// Depth returns the number of rows d.
func (s *sketchCore[R]) Depth() int { return len(s.rows) }

// Width returns the row width w.
func (s *sketchCore[R]) Width() int { return int(s.mask) + 1 }

// Rows exposes the underlying rows (read-mostly; used by the estimator
// integrations, the options-header check and tests).
func (s *sketchCore[R]) Rows() []R { return s.rows }

// SizeBits returns the total memory footprint in bits, including any merge
// encoding overhead of the rows.
func (s *sketchCore[R]) SizeBits() int {
	total := 0
	for _, r := range s.rows {
		total += r.SizeBits()
	}
	return total
}

// Reset restores every row to its freshly-constructed state, reusing the
// backing memory. Hash seeds are unchanged, so a reset sketch keeps merging
// with its seed-sharing peers — the sliding-window bucket-rotation
// primitive.
func (s *sketchCore[R]) Reset() {
	for _, r := range s.rows {
		r.Reset()
	}
}

// SeededBy reports whether the sketch hashes with the seeds its constructor
// derives from seed; decoders use it to check a declared seed against the
// seeds a payload carries.
func (s *sketchCore[R]) SeededBy(seed uint64) bool {
	state := seed
	for _, v := range s.seeds {
		if hashing.SplitMix64(&state) != v {
			return false
		}
	}
	return true
}

// compatible returns why other cannot merge with s — another depth, width
// or seed, or a row pair that same rejects — or nil when it can. A nil
// same leaves the rows to the merge, whose type assertions and row kernels
// check them.
func (s *sketchCore[R]) compatible(other *sketchCore[R], same func(a, b R) bool) error {
	if len(s.rows) != len(other.rows) {
		return fmt.Errorf("sketch: depth %d vs %d", len(s.rows), len(other.rows))
	}
	if s.mask != other.mask {
		return fmt.Errorf("sketch: width %d vs %d", s.mask+1, other.mask+1)
	}
	for i, v := range s.seeds {
		if v != other.seeds[i] {
			return fmt.Errorf("sketch: seed %d of %d mismatch", i, len(s.seeds))
		}
	}
	if same == nil {
		return nil
	}
	for i, r := range s.rows {
		if !same(r, other.rows[i]) {
			return fmt.Errorf("sketch: row %d type/geometry mismatch (%T vs %T)", i, r, other.rows[i])
		}
	}
	return nil
}

// mustMerge panics unless other has s's depth, width and seeds: the
// precondition of every merge and subtract.
func (s *sketchCore[R]) mustMerge(other *sketchCore[R]) {
	if err := s.compatible(other, nil); err != nil {
		panic(err.Error())
	}
}

// sameRow reports whether a and b are both T rows of one geometry: the
// per-row match of CompatibleWith, one call per row type.
func sameRow[T interface{ SameGeometry(T) bool }](a, b any) bool {
	x, ok := a.(T)
	y, isT := b.(T)
	return ok && isT && x.SameGeometry(y)
}
