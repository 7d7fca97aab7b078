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
	// Add adds v to the counter addressed by slot (negative v subtracts).
	Add(slot int, v int64)
	// SetAtLeast raises the counter addressed by slot to at least v.
	SetAtLeast(slot int, v uint64)
	// Value returns the value of the counter addressed by slot.
	Value(slot int) uint64
	// Width returns the number of addressable slots.
	Width() int
	// SizeBits returns the memory footprint in bits.
	SizeBits() int
}

// SignedRow is a row of signed counters, as used by the Count Sketch.
// core.FixedSign and core.SalsaSign implement it.
type SignedRow interface {
	Add(slot int, v int64)
	Value(slot int) int64
	Width() int
	SizeBits() int
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
	rows         []Row
	fixed        []*core.Fixed // exactly one of these three is non-nil for
	salsa        []*core.Salsa // homogeneous sketches; all nil falls back to
	tango        []*core.Tango // the generic interface path
	seeds        []uint64
	mask         uint64
	conservative bool
	slots        []uint32     // d pre-hashed slots: single-item ops hash once
	probes       []core.Probe // d probe records of the SALSA conservative update; nil otherwise
	// chunkSlots is the per-chunk slot buffer of UpdateBatch; it lives on
	// the sketch because a stack buffer would escape through the
	// row-interface AddSlots call and allocate per batch.
	chunkSlots  []uint32
	slotScratch [][]uint32 // per-row slot buffers for conservative batches
}

// newCMS wires d pre-built rows with hash seeds derived from seed.
func newCMS(rows []Row, seed uint64, conservative bool) *CMS {
	if len(rows) == 0 {
		panic("sketch: no rows")
	}
	w := rows[0].Width()
	if w&(w-1) != 0 {
		panic(fmt.Sprintf("sketch: width %d must be a power of two", w))
	}
	for _, r := range rows {
		if r.Width() != w {
			panic("sketch: rows must share one width")
		}
	}
	c := &CMS{
		rows:         rows,
		seeds:        hashing.Seeds(seed, len(rows)),
		mask:         uint64(w - 1),
		conservative: conservative,
		slots:        make([]uint32, len(rows)),
	}
	if conservative {
		c.probes = make([]core.Probe, len(rows))
	}
	c.fixed = rowsOf[*core.Fixed](rows)
	c.salsa = rowsOf[*core.Salsa](rows)
	c.tango = rowsOf[*core.Tango](rows)
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

// RowSpec constructs the rows of a sketch; it is how callers choose between
// baseline, SALSA, and Tango rows. New builds one standalone row; NewRows
// builds all d rows of a sketch backed by one contiguous cache-line-aligned
// arena (the default used by NewCMS/NewCUS — the merged allocation removes
// per-row pointer chasing from every probe).
type RowSpec struct {
	New     func(width int) Row
	NewRows func(d, width int) []Row
}

// FixedRow returns a RowSpec for baseline rows with bits-bit counters.
func FixedRow(bits uint) RowSpec {
	return RowSpec{
		New: func(width int) Row { return core.NewFixed(width, bits) },
		NewRows: func(d, width int) []Row {
			return asRows(core.NewFixedRows(d, width, bits))
		},
	}
}

// SalsaRow returns a RowSpec for SALSA rows with s-bit base counters.
func SalsaRow(s uint, policy core.MergePolicy, compact bool) RowSpec {
	return RowSpec{
		New: func(width int) Row { return core.NewSalsa(width, s, policy, compact) },
		NewRows: func(d, width int) []Row {
			return asRows(core.NewSalsaRows(d, width, s, policy, compact))
		},
	}
}

// TangoRow returns a RowSpec for Tango rows with s-bit base counters.
func TangoRow(s uint, policy core.MergePolicy) RowSpec {
	return RowSpec{
		New: func(width int) Row { return core.NewTango(width, s, policy) },
		NewRows: func(d, width int) []Row {
			return asRows(core.NewTangoRows(d, width, s, policy))
		},
	}
}

// asRows widens a concrete row slice to []Row.
func asRows[R Row](rows []R) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// buildRows realizes d spec rows, preferring the contiguous arena.
func (spec RowSpec) buildRows(d, width int) []Row {
	if spec.NewRows != nil {
		return spec.NewRows(d, width)
	}
	rows := make([]Row, d)
	for i := range rows {
		rows[i] = spec.New(width)
	}
	return rows
}

// NewCMS returns a d×width Count-Min Sketch built from spec rows.
func NewCMS(d, width int, spec RowSpec, seed uint64) *CMS {
	return newCMS(spec.buildRows(d, width), seed, false)
}

// NewCUS returns a d×width Conservative Update Sketch built from spec rows.
// Per Theorem V.3, SALSA rows should use core.MaxMerge.
func NewCUS(d, width int, spec RowSpec, seed uint64) *CMS {
	return newCMS(spec.buildRows(d, width), seed, true)
}

// Depth returns the number of rows d.
func (c *CMS) Depth() int { return len(c.rows) }

// Conservative reports whether updates use the conservative (CUS) rule.
func (c *CMS) Conservative() bool { return c.conservative }

// Width returns the row width w.
func (c *CMS) Width() int { return int(c.mask) + 1 }

// SizeBits returns the total memory footprint in bits, including any merge
// encoding overhead of the rows.
func (c *CMS) SizeBits() int {
	total := 0
	for _, r := range c.rows {
		total += r.SizeBits()
	}
	return total
}

// Rows exposes the underlying rows (read-mostly; used by the estimator
// integrations and tests).
func (c *CMS) Rows() []Row { return c.rows }

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
	c.checkCompatible(other)
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

// resettableRow is implemented by every core row; Reset restores the
// pristine state while reusing the backing memory.
type resettableRow interface{ Reset() }

// Reset restores every row to its freshly-constructed state, reusing the
// backing memory. Hash seeds are unchanged, so a reset sketch keeps merging
// with its seed-sharing peers — the sliding-window bucket-rotation
// primitive.
func (c *CMS) Reset() {
	for _, r := range c.rows {
		r.(resettableRow).Reset()
	}
}

// SubtractFrom subtracts other from c counter-wise, producing s(A\B); valid
// for Strict Turnstile CMS when the subtrahend is contained in c.
func (c *CMS) SubtractFrom(other *CMS) {
	c.checkCompatible(other)
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

func (c *CMS) checkCompatible(other *CMS) {
	if len(c.rows) != len(other.rows) || c.mask != other.mask {
		panic("sketch: geometry mismatch")
	}
	for i := range c.seeds {
		if c.seeds[i] != other.seeds[i] {
			panic("sketch: sketches must share hash seeds")
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
