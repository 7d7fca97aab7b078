// Package sketch implements the frequency sketches the paper builds on —
// Count-Min Sketch (CMS), Conservative Update Sketch (CUS) and Count Sketch
// (CS) — parameterized over the counter-array row type, so each sketch runs
// unchanged over fixed-width baseline rows, SALSA rows, or Tango rows.
package sketch

import (
	"fmt"

	"salsa/internal/core"
	"salsa/internal/distinct"
	"salsa/internal/hashing"
)

// Row is a row of non-negative counters, as used by CMS and CUS.
// core.Fixed, core.Salsa and core.Tango implement it.
type Row interface {
	row
	// Add adds v to the counter addressed by slot (negative v subtracts).
	Add(slot int, v int64)
	// AddSlots adds v to the counters addressed by slots, in order: the
	// batch path.
	AddSlots(slots []uint32, v int64)
	// SetAtLeast raises the counter addressed by slot to at least v.
	SetAtLeast(slot int, v uint64)
	// Value returns the value of the counter addressed by slot.
	Value(slot int) uint64
}

// SignedRow is a row of signed counters, as used by the Count Sketch.
// core.FixedSign and core.SalsaSign implement it.
type SignedRow interface {
	row
	Add(slot int, v int64)
	// AddSignedSlots adds signs[j]·v to the counter addressed by slots[j],
	// in order: the batch path.
	AddSignedSlots(slots []uint32, signs []int8, v int64)
	Value(slot int) int64
}

// Compile-time interface checks.
var (
	_ Row       = (*core.Fixed)(nil)
	_ Row       = (*core.Salsa)(nil)
	_ Row       = (*core.Tango)(nil)
	_ SignedRow = (*core.FixedSign)(nil)
	_ SignedRow = (*core.SalsaSign)(nil)
)

// CMS is a Count-Min Sketch (optionally in conservative-update mode, which
// makes it the CUS of Estan & Varghese). Each item is mapped to one counter
// per row; the estimate is the minimum over the rows (§III).
//
// Homogeneous sketches — every row the same concrete core type, which is
// what the RowSpec constructors build — additionally carry a monomorphic
// view of the rows (fixed/salsa/tango below), and the hot paths run over it
// with direct, devirtualized calls into internal/core; see fast.go. The
// interface rows remain the source of truth for merge, marshal, and the
// estimator integrations.
type CMS struct {
	sketchCore[Row]
	fixed        []*core.Fixed // exactly one of these three is non-nil for
	salsa        []*core.Salsa // homogeneous sketches; all nil falls back to
	tango        []*core.Tango // the generic interface path
	conservative bool
	slots        []uint32     // d pre-hashed slots: single-item ops hash once
	probes       []core.Probe // d probe records of the SALSA conservative update; nil otherwise
	// chunkSlots is the per-chunk slot buffer of UpdateBatch; it lives on
	// the sketch because a stack buffer would escape through the
	// row-interface AddSlots call and allocate per batch.
	chunkSlots  []uint32
	slotScratch [][]uint32 // per-row slot buffers for conservative batches
}

// newCMS wires a sketch core into a CMS.
func newCMS(s sketchCore[Row], conservative bool) *CMS {
	c := &CMS{
		sketchCore:   s,
		conservative: conservative,
		slots:        make([]uint32, len(s.rows)),
	}
	if conservative {
		c.probes = make([]core.Probe, len(s.rows))
	}
	c.fixed = rowsOf[*core.Fixed](s.rows)
	c.salsa = rowsOf[*core.Salsa](s.rows)
	c.tango = rowsOf[*core.Tango](s.rows)
	return c
}

// rowsOf returns rows as a []T, the monomorphic view of a sketch whose
// rows are all one concrete core type T, and nil when any row is not a T.
// Mixed-type sketches (possible only through Unmarshal of hand-built
// payloads) keep every view nil and use the generic interface path.
func rowsOf[T, R any](rows []R) []T {
	if _, ok := any(rows[0]).(T); !ok {
		return nil // the views a sketch does not use cost no allocation
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		t, ok := any(r).(T)
		if !ok {
			return nil
		}
		out[i] = t
	}
	return out
}

// disableFast drops the monomorphic row view, forcing every operation
// through the generic interface path. It exists for the fast/general
// bit-for-bit equivalence tests.
func (c *CMS) disableFast() { c.fixed, c.salsa, c.tango = nil, nil, nil }

// RowSpec builds the d rows of a sketch; it is how callers choose between
// baseline, SALSA, and Tango rows. The rows share one contiguous
// cache-line-aligned arena: the merged allocation removes per-row pointer
// chasing from every probe.
type RowSpec func(d, width int) []Row

// FixedRow returns a RowSpec for baseline rows with bits-bit counters.
func FixedRow(bits uint) RowSpec {
	return func(d, width int) []Row { return widen[Row](core.NewFixedRows(d, width, bits)) }
}

// SalsaRow returns a RowSpec for SALSA rows with s-bit base counters.
func SalsaRow(s uint, policy core.MergePolicy, compact bool) RowSpec {
	return func(d, width int) []Row { return widen[Row](core.NewSalsaRows(d, width, s, policy, compact)) }
}

// TangoRow returns a RowSpec for Tango rows with s-bit base counters.
func TangoRow(s uint, policy core.MergePolicy) RowSpec {
	return func(d, width int) []Row { return widen[Row](core.NewTangoRows(d, width, s, policy)) }
}

// NewCMS returns a d×width Count-Min Sketch built from spec rows.
func NewCMS(d, width int, spec RowSpec, seed uint64) *CMS {
	return newCMS(mustSketchCore(spec(d, width), hashing.Seeds(seed, d)), false)
}

// NewCUS returns a d×width Conservative Update Sketch built from spec rows.
// Per Theorem V.3, SALSA rows should use core.MaxMerge.
func NewCUS(d, width int, spec RowSpec, seed uint64) *CMS {
	return newCMS(mustSketchCore(spec(d, width), hashing.Seeds(seed, d)), true)
}

// Conservative reports whether updates use the conservative (CUS) rule.
func (c *CMS) Conservative() bool { return c.conservative }

// Update processes the stream update ⟨x, v⟩. In conservative mode v must be
// non-negative (the Cash Register model).
//
//salsa:hotpath
func (c *CMS) Update(x uint64, v int64) {
	if c.conservative {
		if _, ok := c.conservativeFast(x, v); !ok {
			c.updateGeneric(x, v)
		}
		return
	}
	switch {
	case c.salsa != nil:
		core.SalsaUpdateEach(c.salsa, c.seeds, c.mask, x, v)
	case c.fixed != nil:
		core.FixedUpdateEach(c.fixed, c.seeds, c.mask, x, v)
	case c.tango != nil:
		core.TangoUpdateEach(c.tango, c.seeds, c.mask, x, v)
	default:
		c.updateGeneric(x, v)
	}
}

// updateGeneric is Update over the interface rows: the fallback for
// mixed-row sketches, and the oracle the monomorphic paths are equivalence-
// tested against.
//
//salsa:hotpath
func (c *CMS) updateGeneric(x uint64, v int64) {
	if !c.conservative {
		for i, r := range c.rows {
			r.Add(int(hashing.Index(x, c.seeds[i], c.mask)), v)
		}
		return
	}
	// Conservative update: raise each counter to at most v plus the current
	// estimate, never beyond what the minimum row implies (§III). Each row
	// is hashed once, feeding both the min pass and the raise pass.
	slots := c.hashOnce(x)
	est := ^uint64(0)
	for i, r := range c.rows {
		if cur := r.Value(int(slots[i])); cur < est {
			est = cur
		}
	}
	target := satAddU(est, uint64(mustNonNegative(v)))
	for i, r := range c.rows {
		r.SetAtLeast(int(slots[i]), target)
	}
}

// hashOnce fills the per-sketch slot scratch with x's slot in every row.
// The scratch makes single-item ops allocation-free; like the query scratch
// of CountSketch, it means a sketch must not be mutated concurrently.
//
//salsa:hotpath
func (c *CMS) hashOnce(x uint64) []uint32 {
	slots := c.slots
	for i := range slots {
		slots[i] = uint32(hashing.Index(x, c.seeds[i], c.mask))
	}
	return slots
}

// mustNonNegative guards the Cash Register precondition of conservative
// updates, returning v unchanged.
//
//salsa:hotpath
func mustNonNegative(v int64) int64 {
	if v < 0 {
		panic("sketch: negative update in conservative mode")
	}
	return v
}

// Query returns the estimate f̂(x) = min over rows.
//
//salsa:hotpath
func (c *CMS) Query(x uint64) uint64 {
	switch {
	case c.salsa != nil:
		return c.querySalsa(x)
	case c.fixed != nil:
		return c.queryFixed(x)
	case c.tango != nil:
		return c.queryTango(x)
	}
	est := ^uint64(0)
	for i, r := range c.rows {
		if v := r.Value(int(hashing.Index(x, c.seeds[i], c.mask))); v < est {
			est = v
		}
	}
	return est
}

// UpdateEstimate processes ⟨x, v⟩ and returns x's estimate afterwards —
// Update followed by Query. Homogeneous conservative sketches fuse the two:
// the raise pass already reads every row's counter, so the estimate costs
// no second hash or probe.
//
//salsa:hotpath
func (c *CMS) UpdateEstimate(x uint64, v int64) uint64 {
	if c.conservative {
		if est, ok := c.conservativeFast(x, v); ok {
			return est
		}
	}
	c.Update(x, v)
	return c.Query(x)
}

// MergeFrom adds other into c counter-wise, producing s(A∪B). Both sketches
// must have identical geometry, row types, and seed.
func (c *CMS) MergeFrom(other *CMS) {
	c.mustMerge(&other.sketchCore)
	for i, r := range c.rows {
		switch row := r.(type) {
		case *core.Fixed:
			row.MergeFrom(other.rows[i].(*core.Fixed))
		case *core.Salsa:
			row.MergeFrom(other.rows[i].(*core.Salsa))
		case *core.Tango:
			row.MergeFrom(other.rows[i].(*core.Tango))
		default:
			panic(fmt.Sprintf("sketch: merge unsupported for %T", r))
		}
	}
}

// CopyFrom makes c a word-for-word copy of other, which must pass
// CompatibleWith and record merges in the same encoding: afterwards both
// marshal to the same bytes, and they share no storage.
func (c *CMS) CopyFrom(other *CMS) {
	for i, r := range c.rows {
		switch row := r.(type) {
		case *core.Fixed:
			row.CopyFrom(other.rows[i].(*core.Fixed))
		case *core.Salsa:
			row.CopyFrom(other.rows[i].(*core.Salsa))
		case *core.Tango:
			row.CopyFrom(other.rows[i].(*core.Tango))
		default:
			panic(fmt.Sprintf("sketch: copy unsupported for %T", r))
		}
	}
}

// SubtractFrom subtracts other from c counter-wise, producing s(A\B); valid
// for Strict Turnstile CMS when the subtrahend is contained in c.
func (c *CMS) SubtractFrom(other *CMS) {
	c.mustMerge(&other.sketchCore)
	for i, r := range c.rows {
		switch row := r.(type) {
		case *core.Fixed:
			row.SubtractFrom(other.rows[i].(*core.Fixed))
		case *core.Salsa:
			row.SubtractFrom(other.rows[i].(*core.Salsa))
		default:
			panic(fmt.Sprintf("sketch: subtract unsupported for %T", r))
		}
	}
}

// zeroFractioner is implemented by rows that can report (or estimate) their
// fraction of zero base counters.
type zeroFractioner interface {
	ZeroFraction() float64
}

// DistinctLinearCounting estimates the number of distinct items with the
// Linear Counting estimator −w·ln(p) (distinct.LinearCounting) applied to
// each row's zero-counter fraction, averaged over rows (§III, "Counting
// Distinct Items"). For SALSA rows p is the paper's optimistic
// merged-counter estimate. It returns distinct.ErrOutOfRange when some row
// has no zero counters, in which case Linear Counting is out of range (the
// paper's plots likewise start only at sufficient memory).
func (c *CMS) DistinctLinearCounting() (float64, error) {
	total := 0.0
	for _, r := range c.rows {
		zf, ok := r.(zeroFractioner)
		if !ok {
			return 0, fmt.Errorf("sketch: row type %T cannot report zero fractions", r)
		}
		est, err := distinct.LinearCounting(r.Width(), zf.ZeroFraction())
		if err != nil {
			return 0, err
		}
		total += est
	}
	return total / float64(len(c.rows)), nil
}

//salsa:hotpath
func satAddU(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}
