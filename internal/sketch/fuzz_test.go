package sketch

import (
	"bytes"
	"testing"

	"salsa/internal/core"
)

// FuzzSketchUnmarshal: sketch decoders must reject arbitrary bytes without
// panicking.
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
			c.Update(1, 1) // decoded sketches must be operational
			_ = c.Query(1)
		}
		if c, err := UnmarshalCountSketch(data); err == nil {
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
