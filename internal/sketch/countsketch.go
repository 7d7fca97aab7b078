package sketch

import (
	"fmt"

	"salsa/internal/core"
	"salsa/internal/hashing"
)

// CountSketch is the Count Sketch of Charikar, Chen & Farach-Colton (§III):
// each row pairs an index hash with a ±1 sign hash, updates add v·gᵢ(x), and
// the estimate is the median of the per-row signed readings. It operates in
// the general Turnstile model and provides an L2 guarantee.
//
// Like CMS, homogeneous sketches carry a monomorphic view of the rows
// (fixed/salsa) and the per-item paths run over it with direct calls into
// internal/core; the interface rows remain the source of truth for merge
// and marshal.
type CountSketch struct {
	sketchCore[SignedRow]
	fixed []*core.FixedSign // one of these two is non-nil for
	salsa []*core.SalsaSign // homogeneous sketches
	// idxSeeds and signSeeds are the two halves of the core's seeds: per
	// row the index seed and the sign seed.
	idxSeeds     []uint64
	signSeeds    []uint64
	medBuf       []int64
	batchScratch []int64  // d×batchChunk signed readings for QueryBatch
	chunkSlots   []uint32 // per-chunk slot/sign buffers for UpdateBatch
	chunkSigns   []int8
}

// SignedRowSpec builds the d rows of a Count Sketch in one contiguous
// cache-line-aligned arena.
type SignedRowSpec func(d, width int) []SignedRow

// FixedSignRow returns a SignedRowSpec for baseline two's-complement rows.
func FixedSignRow(bits uint) SignedRowSpec {
	return func(d, width int) []SignedRow { return widen[SignedRow](core.NewFixedSignRows(d, width, bits)) }
}

// SalsaSignRow returns a SignedRowSpec for SALSA sign-magnitude rows.
func SalsaSignRow(s uint, compact bool) SignedRowSpec {
	return func(d, width int) []SignedRow { return widen[SignedRow](core.NewSalsaSignRows(d, width, s, compact)) }
}

// NewCountSketch returns a d×width Count Sketch built from spec rows.
func NewCountSketch(d, width int, spec SignedRowSpec, seed uint64) *CountSketch {
	return newCountSketch(mustSketchCore(spec(d, width), hashing.Seeds(seed, 2*d)))
}

// newCountSketch wires a sketch core into a Count Sketch; Unmarshal shares
// it so decoded sketches get the monomorphic fast paths too.
func newCountSketch(s sketchCore[SignedRow]) *CountSketch {
	d := len(s.rows)
	c := &CountSketch{
		sketchCore: s,
		idxSeeds:   s.seeds[:d:d],
		signSeeds:  s.seeds[d:],
		medBuf:     make([]int64, d),
	}
	c.fixed = rowsOf[*core.FixedSign](s.rows)
	c.salsa = rowsOf[*core.SalsaSign](s.rows)
	return c
}

// disableFast drops the monomorphic row view, forcing the generic interface
// path; test-only (the fast/general equivalence tests).
func (c *CountSketch) disableFast() { c.fixed, c.salsa = nil, nil }

// Update processes the stream update ⟨x, v⟩ (v of either sign). Homogeneous
// sketches run the whole d-row update in one monomorphic row-set call
// (core/rowset.go).
//
//salsa:hotpath
func (c *CountSketch) Update(x uint64, v int64) {
	switch {
	case c.salsa != nil:
		core.SalsaSignUpdateEach(c.salsa, c.idxSeeds, c.signSeeds, c.mask, x, v)
	case c.fixed != nil:
		core.FixedSignUpdateEach(c.fixed, c.idxSeeds, c.signSeeds, c.mask, x, v)
	default:
		for i, r := range c.rows {
			slot := int(hashing.Index(x, c.idxSeeds[i], c.mask))
			r.Add(slot, v*hashing.Sign(x, c.signSeeds[i]))
		}
	}
}

// Query returns the estimate f̂(x) = median over rows of C[i,hᵢ(x)]·gᵢ(x).
//
//salsa:hotpath
func (c *CountSketch) Query(x uint64) int64 {
	switch {
	case c.salsa != nil:
		core.SalsaSignReadEach(c.salsa, c.idxSeeds, c.signSeeds, c.mask, x, c.medBuf)
	case c.fixed != nil:
		core.FixedSignReadEach(c.fixed, c.idxSeeds, c.signSeeds, c.mask, x, c.medBuf)
	default:
		for i, r := range c.rows {
			slot := int(hashing.Index(x, c.idxSeeds[i], c.mask))
			c.medBuf[i] = r.Value(slot) * hashing.Sign(x, c.signSeeds[i])
		}
	}
	return median(c.medBuf)
}

// median returns the median of buf, mutating its order. For an even number
// of rows it returns the mean of the two central values, as in the
// reference implementations. Insertion sort keeps the query path
// allocation-free (sort.Slice boxes the slice header) and beats the
// general-purpose sort at the handful of rows sketches have.
//
//salsa:hotpath
func median(buf []int64) int64 {
	for i := 1; i < len(buf); i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	n := len(buf)
	if n%2 == 1 {
		return buf[n/2]
	}
	return (buf[n/2-1] + buf[n/2]) / 2
}

// CopyFrom is the Count Sketch counterpart of (*CMS).CopyFrom.
func (c *CountSketch) CopyFrom(other *CountSketch) {
	for i, r := range c.rows {
		switch row := r.(type) {
		case *core.FixedSign:
			row.CopyFrom(other.rows[i].(*core.FixedSign))
		case *core.SalsaSign:
			row.CopyFrom(other.rows[i].(*core.SalsaSign))
		default:
			panic(fmt.Sprintf("sketch: copy unsupported for %T", r))
		}
	}
}

// MergeFrom adds scale (±1) times other into c, producing s(A∪B) or s(A\B)
// (§V): Count Sketch is linear, so change detection between epochs is a
// subtraction of sketches sharing seeds.
func (c *CountSketch) MergeFrom(other *CountSketch, scale int64) {
	c.mustMerge(&other.sketchCore)
	for i, r := range c.rows {
		switch row := r.(type) {
		case *core.FixedSign:
			row.MergeFrom(other.rows[i].(*core.FixedSign), scale)
		case *core.SalsaSign:
			row.MergeFrom(other.rows[i].(*core.SalsaSign), scale)
		default:
			panic(fmt.Sprintf("sketch: merge unsupported for %T", r))
		}
	}
}
