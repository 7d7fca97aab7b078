package sketch

import (
	"salsa/internal/core"
)

// Monomorphic CMS hot paths: each homogeneous row backend dispatches to its
// core row-set operation (core/rowset.go), which hashes inline and runs the
// branchless merge-bit probe over the concrete rows — one function-call
// boundary per item for the whole sketch, no interface dispatch. The
// backends are hand-specialized rather than generic: Go's gcshape
// stenciling would route type-parameter method calls through a dictionary —
// an indirect call again — which is exactly the cost being removed.
//
// Every path here must stay bit-for-bit equivalent to updateGeneric and the
// interface Query; fast_test.go pins that with marshal-byte-identical runs
// against a fast-path-disabled twin.

// conservativeFast applies the conservative update ⟨x, v⟩ through the
// homogeneous row view and returns x's new estimate, read off the raise
// pass; ok is false for mixed-row sketches, which take updateGeneric. SALSA
// rows probe each row once (core.SalsaConservative); Fixed and Tango rows
// run a min pass and a raise pass over the same hashes.
//
//salsa:hotpath
func (c *CMS) conservativeFast(x uint64, v int64) (est uint64, ok bool) {
	nv := uint64(mustNonNegative(v))
	switch {
	case c.salsa != nil:
		return core.SalsaConservative(c.salsa, c.hashOnce(x), nv, c.probes), true
	case c.fixed != nil:
		slots := c.hashOnce(x)
		return core.FixedRaiseEach(c.fixed, slots, satAddU(core.FixedMinEach(c.fixed, slots), nv)), true
	case c.tango != nil:
		slots := c.hashOnce(x)
		return core.TangoRaiseEach(c.tango, slots, satAddU(core.TangoMinEach(c.tango, slots), nv)), true
	}
	return 0, false
}

//salsa:hotpath
func (c *CMS) querySalsa(x uint64) uint64 {
	return core.SalsaQueryEach(c.salsa, c.seeds, c.mask, x)
}

//salsa:hotpath
func (c *CMS) queryFixed(x uint64) uint64 {
	return core.FixedQueryEach(c.fixed, c.seeds, c.mask, x)
}

//salsa:hotpath
func (c *CMS) queryTango(x uint64) uint64 {
	return core.TangoQueryEach(c.tango, c.seeds, c.mask, x)
}

// minInto dispatches one row's QueryBatch inner loop to its concrete
// row-set loop, falling back to the interface loop for foreign row
// implementations.
//
//salsa:hotpath
func minInto(r Row, slots []uint32, out []uint64) {
	switch row := r.(type) {
	case *core.Salsa:
		core.SalsaMinSlots(row, slots, out)
	case *core.Fixed:
		core.FixedMinSlots(row, slots, out)
	case *core.Tango:
		core.TangoMinSlots(row, slots, out)
	default:
		for j, slot := range slots {
			if v := r.Value(int(slot)); v < out[j] {
				out[j] = v
			}
		}
	}
}

// conservativeItem applies the conservative rule for one item whose per-row
// slots are scratch[i][j] — the batch counterpart of the single-item
// conservative paths, sharing their row-set kernels.
//
//salsa:hotpath
func (c *CMS) conservativeItem(scratch [][]uint32, j int, v uint64) {
	slots := c.slots
	for i := range scratch {
		slots[i] = scratch[i][j]
	}
	switch {
	case c.salsa != nil:
		core.SalsaConservative(c.salsa, slots, v, c.probes)
	case c.fixed != nil:
		core.FixedRaiseEach(c.fixed, slots, satAddU(core.FixedMinEach(c.fixed, slots), v))
	case c.tango != nil:
		core.TangoRaiseEach(c.tango, slots, satAddU(core.TangoMinEach(c.tango, slots), v))
	default:
		est := ^uint64(0)
		for i, r := range c.rows {
			if cur := r.Value(int(slots[i])); cur < est {
				est = cur
			}
		}
		target := satAddU(est, v)
		for i, r := range c.rows {
			r.SetAtLeast(int(slots[i]), target)
		}
	}
}
