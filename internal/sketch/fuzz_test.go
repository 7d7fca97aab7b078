package sketch

import (
	"bytes"
	"fmt"
	"testing"

	"salsa/internal/core"
)

// FuzzSketchUnmarshal: sketch decoders must reject arbitrary bytes without
// panicking, and accept only bytes MarshalBinary writes, so an accepted
// payload re-marshals to itself.
func FuzzSketchUnmarshal(f *testing.F) {
	cms := NewCMS(2, 64, FixedRow(32), 1)
	cms.Update(5, 10)
	blob, _ := cms.MarshalBinary()
	f.Add(blob)
	cs := NewCountSketch(3, 64, SalsaSignRow(8, false), 2)
	cs.Update(5, -10)
	blob2, _ := cs.MarshalBinary()
	f.Add(blob2)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := UnmarshalCMS(data); err == nil {
			if again, err := c.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("CMS re-marshal differs from the payload (err %v)", err)
			}
			c.Update(1, 1) // decoded sketches must be operational
			_ = c.Query(1)
		}
		if c, err := UnmarshalCountSketch(data); err == nil {
			if again, err := c.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("Count Sketch re-marshal differs from the payload (err %v)", err)
			}
			c.Update(1, 1)
			_ = c.Query(1)
		}
	})
}

// FuzzConservativeKernel drives an arbitrary conservative stream through
// the SALSA kernel three ways: single-item UpdateEstimate, a disableFast
// twin on the generic path, and UpdateBatch over each run of records that
// share a weight. All three must marshal to identical bytes, and every
// estimate UpdateEstimate returns must equal the Query that follows it.
// The input picks the depth (1–9), the base counter size (1–32 bits), the
// merge policy and the encoding; each 2-byte record is an item and a
// weight m·4^e (m < 8, e ≤ 30), so a few records saturate 64-bit counters.
func FuzzConservativeKernel(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint8(0), []byte{1, 9, 2, 9, 1, 17, 3, 0, 1, 255, 1, 255})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{7, 1, 7, 1, 8, 250, 9, 3})
	f.Add(uint8(8), uint8(5), uint8(2), []byte{4, 255, 4, 255, 4, 255, 5, 1, 6, 2})
	f.Fuzz(func(t *testing.T, depth, base, flags uint8, data []byte) {
		policy := core.MaxMerge
		if flags&1 != 0 {
			policy = core.SumMerge
		}
		s, compact := uint(1)<<(base%6), flags&2 != 0
		spec := SalsaRow(s, policy, compact)
		d := 1 + int(depth%9)
		fast, generic, batch := NewCUS(d, 64, spec, 5), NewCUS(d, 64, spec, 5), NewCUS(d, 64, spec, 5)
		generic.disableFast()
		var run []uint64
		var runWeight int64
		for len(data) >= 2 {
			x, b := uint64(data[0]), data[1]
			data = data[2:]
			w := int64(b&7) << min(2*(b>>3), 60)
			if est, q := fast.UpdateEstimate(x, w), fast.Query(x); est != q {
				t.Fatalf("UpdateEstimate(%d, %d) = %d, Query = %d", x, w, est, q)
			}
			generic.Update(x, w)
			if len(run) > 0 && w != runWeight {
				batch.UpdateBatch(run, runWeight)
				run = run[:0]
			}
			run, runWeight = append(run, x), w
		}
		batch.UpdateBatch(run, runWeight)
		want, err := generic.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*CMS{"fast": fast, "batch": batch} {
			got, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s path diverged from the generic path (d=%d s=%d %v compact=%v)", name, d, s, policy, compact)
			}
		}
	})
}

// rowSetBackend is one sketch configuration FuzzRowSetKernels can pick.
type rowSetBackend struct {
	name         string
	cms          RowSpec // nil: a Count Sketch over cs
	cs           SignedRowSpec
	conservative bool
	negative     bool // the rows accept negative weights
}

// rowSetBackends lists every row-set kernel's backend: CMS over Fixed 8/32,
// SALSA 1–32 in both encodings and merge policies, and Tango, each plain
// and conservative; Count Sketch over FixedSign and SalsaSign 2–32 (one
// bit of a signed SALSA counter is its sign) in both encodings.
func rowSetBackends() []rowSetBackend {
	var cms []rowSetBackend
	for _, bits := range []uint{8, 32} {
		cms = append(cms, rowSetBackend{name: fmt.Sprintf("fixed%d", bits), cms: FixedRow(bits), negative: true})
	}
	for _, p := range []core.MergePolicy{core.SumMerge, core.MaxMerge} {
		for s := uint(1); s <= 32; s *= 2 {
			for _, compact := range []bool{false, true} {
				cms = append(cms, rowSetBackend{
					name: fmt.Sprintf("salsa%d/%v/compact=%v", s, p, compact),
					cms:  SalsaRow(s, p, compact), negative: p == core.SumMerge,
				})
			}
		}
		for _, s := range []uint{2, 8} {
			cms = append(cms, rowSetBackend{name: fmt.Sprintf("tango%d/%v", s, p), cms: TangoRow(s, p), negative: p == core.SumMerge})
		}
	}
	var all []rowSetBackend
	for _, b := range cms {
		cus := b
		cus.name, cus.conservative, cus.negative = "cus/"+b.name, true, false
		all = append(all, b, cus)
	}
	for _, bits := range []uint{8, 32} {
		all = append(all, rowSetBackend{name: fmt.Sprintf("cs/fixedsign%d", bits), cs: FixedSignRow(bits), negative: true})
	}
	for s := uint(2); s <= 32; s *= 2 {
		for _, compact := range []bool{false, true} {
			all = append(all, rowSetBackend{name: fmt.Sprintf("cs/salsasign%d/compact=%v", s, compact), cs: SalsaSignRow(s, compact), negative: true})
		}
	}
	return all
}

// rowSetSketch is the surface FuzzRowSetKernels drives on either sketch
// kind. Its estimates convert to int64, which keeps equality.
type rowSetSketch interface {
	Update(x uint64, v int64)
	UpdateBatch(items []uint64, v int64)
	UpdateEstimate(x uint64, v int64) int64
	Query(x uint64) int64
	QueryBatch(items []uint64) []int64
}

type cmsUnderFuzz struct{ *CMS }

func (c cmsUnderFuzz) UpdateEstimate(x uint64, v int64) int64 {
	return int64(c.CMS.UpdateEstimate(x, v))
}
func (c cmsUnderFuzz) Query(x uint64) int64 { return int64(c.CMS.Query(x)) }
func (c cmsUnderFuzz) QueryBatch(items []uint64) []int64 {
	out := make([]int64, len(items))
	for i, v := range c.CMS.QueryBatch(items, nil) {
		out[i] = int64(v)
	}
	return out
}

type csUnderFuzz struct{ *CountSketch }

// UpdateEstimate is Update followed by Query: a Count Sketch has no fused
// path.
func (c csUnderFuzz) UpdateEstimate(x uint64, v int64) int64 {
	c.Update(x, v)
	return c.CountSketch.Query(x)
}
func (c csUnderFuzz) QueryBatch(items []uint64) []int64 { return c.CountSketch.QueryBatch(items, nil) }

// FuzzRowSetKernels drives an arbitrary stream through a sketch's
// monomorphic row-set kernels and through a disableFast twin on the
// generic interface path. The input picks the depth (1–9) and the backend
// (rowSetBackends); each 3-byte record is an item, a control byte and a
// weight m·4^e (m < 8, e ≤ 30), so a few records saturate 64-bit counters.
// Bits 1–2 of the control byte pick the operation: Update, UpdateEstimate,
// a batch run (consecutive batch records of one weight go to UpdateBatch on
// the fast sketch and to single Updates on the twin), or Query and
// QueryBatch over the last 64 items. Its low bit negates the weight where
// the backend accepts negative weights. Every answer must agree, and the
// two sketches must end in the same state.
func FuzzRowSetKernels(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{1, 0, 9, 2, 2, 9, 1, 4, 17, 3, 6, 0, 1, 1, 255})
	f.Add(uint8(0), uint8(20), []byte{7, 4, 1, 7, 4, 1, 8, 6, 250, 9, 2, 3, 7, 0, 255})
	f.Add(uint8(8), uint8(61), []byte{4, 1, 255, 4, 1, 255, 4, 5, 255, 5, 6, 1, 6, 3, 2})
	f.Add(uint8(4), uint8(66), []byte{4, 0, 255, 4, 0, 255, 4, 2, 255, 5, 7, 1, 6, 3, 250})
	backends := rowSetBackends()
	f.Fuzz(func(t *testing.T, depth, backend uint8, data []byte) {
		b := backends[int(backend)%len(backends)]
		d := 1 + int(depth%9)
		var fast, generic rowSetSketch
		var check func()
		if b.cms != nil {
			build := func() *CMS {
				if b.conservative {
					return NewCUS(d, 64, b.cms, 5)
				}
				return NewCMS(d, 64, b.cms, 5)
			}
			fc, gc := build(), build()
			gc.disableFast()
			fast, generic = cmsUnderFuzz{fc}, cmsUnderFuzz{gc}
			check = func() { checkCMSEqual(t, b.name, fc, gc) }
		} else {
			fc, gc := NewCountSketch(d, 64, b.cs, 5), NewCountSketch(d, 64, b.cs, 5)
			gc.disableFast()
			fast, generic = csUnderFuzz{fc}, csUnderFuzz{gc}
			check = func() { checkCSEqual(t, b.name, fc, gc) }
		}
		var run, seen []uint64
		var runWeight int64
		flush := func() {
			fast.UpdateBatch(run, runWeight)
			for _, x := range run {
				generic.Update(x, runWeight)
			}
			run = run[:0]
		}
		for len(data) >= 3 {
			x, ctl, mag := uint64(data[0]), data[1], data[2]
			data = data[3:]
			w := int64(mag&7) << min(2*(mag>>3), 60)
			if ctl&1 != 0 && b.negative {
				w = -w
			}
			seen = append(seen, x)
			op := (ctl >> 1) % 4
			if op != 2 || w != runWeight {
				flush()
			}
			switch op {
			case 0:
				fast.Update(x, w)
				generic.Update(x, w)
			case 1:
				if fe, ge := fast.UpdateEstimate(x, w), generic.UpdateEstimate(x, w); fe != ge {
					t.Fatalf("%s d=%d: UpdateEstimate(%d, %d): fast %d != generic %d", b.name, d, x, w, fe, ge)
				}
			case 2:
				run, runWeight = append(run, x), w
			case 3:
				items := seen[max(0, len(seen)-64):]
				got := fast.QueryBatch(items)
				for i, y := range items {
					fq, gq := fast.Query(y), generic.Query(y)
					if fq != gq || got[i] != gq {
						t.Fatalf("%s d=%d: item %d: Query fast %d, QueryBatch %d, generic %d", b.name, d, y, fq, got[i], gq)
					}
				}
			}
		}
		flush()
		check()
	})
}
