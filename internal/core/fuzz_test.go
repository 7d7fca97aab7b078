package core

import (
	"bytes"
	"encoding"
	"testing"
)

// FuzzSalsaOps drives a SALSA array with arbitrary operation bytes and
// checks the structural invariants after every step. Run with
// `go test -fuzz FuzzSalsaOps ./internal/core` for deep exploration; the
// seed corpus keeps it meaningful as a plain test.
func FuzzSalsaOps(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0xff, 0x10})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x7f, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const w = 64
		c := NewSalsa(w, 8, MaxMerge, false)
		sums := make([]uint64, w)
		for i := 0; i+1 < len(ops); i += 2 {
			slot := int(ops[i]) % w
			v := int64(ops[i+1])
			c.Add(slot, v)
			sums[slot] += uint64(v)
		}
		for i := 0; i < w; i++ {
			start, count := c.CounterRange(i)
			if count&(count-1) != 0 || start%count != 0 {
				t.Fatalf("slot %d: malformed range [%d,+%d)", i, start, count)
			}
			var total, max uint64
			for j := start; j < start+count; j++ {
				total += sums[j]
				if sums[j] > max {
					max = sums[j]
				}
			}
			if v := c.Value(i); v < max || v > total {
				t.Fatalf("slot %d: value %d outside [%d,%d]", i, v, max, total)
			}
		}
	})
}

// FuzzMergeKernels drives two SALSA rows (and their Fixed shadows) with
// arbitrary op bytes, merges them through the word-parallel kernels and
// through the per-counter reference paths, and requires marshal-byte-
// identical results — the deep-exploration companion to the randomized
// TestSWARKernelEquivalence* suite, for merges and subtractions. Copying
// one row of each pair over the other must reproduce it byte for byte. The odd
// trailing byte steers both the counter size and whether the rows share a
// layout (cloning before merge), so the same-layout, overflow-replay and
// widened paths all get fuzzed.
func FuzzMergeKernels(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0xff, 0x10, 0x03})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x7f, 0x7f, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const w = 64
		sizes := []uint{2, 4, 8, 16}
		s := sizes[len(ops)%len(sizes)]
		a := NewSalsa(w, s, SumMerge, false)
		b := NewSalsa(w, s, SumMerge, false)
		fa := NewFixed(w, s)
		fb := NewFixed(w, s)
		for i := 0; i+1 < len(ops); i += 2 {
			slot, v := int(ops[i])%w, int64(ops[i+1])
			if ops[i]&1 == 0 {
				a.Add(slot, v<<(uint(ops[i+1])%s))
				fa.Add(slot, v)
			} else {
				b.Add(slot, v<<(uint(ops[i+1])%s))
				fb.Add(slot, v)
			}
		}
		if len(ops)%2 == 1 && ops[len(ops)-1]&1 == 1 {
			// Same-layout case: merge a byte-identical clone instead.
			blob, _ := a.MarshalBinary()
			b, _ = UnmarshalSalsa(blob)
			fblob, _ := fa.MarshalBinary()
			fb, _ = UnmarshalFixed(fblob)
		}
		mergeEqual := func(fastBlob, slowBlob []byte, kind string) {
			if !bytes.Equal(fastBlob, slowBlob) {
				t.Fatalf("%s: kernel result differs from reference", kind)
			}
		}
		ablob, _ := a.MarshalBinary()
		bblob, _ := b.MarshalBinary()
		cp, _ := UnmarshalSalsa(ablob)
		cp.CopyFrom(b)
		cpBlob, _ := cp.MarshalBinary()
		mergeEqual(cpBlob, bblob, "salsa-copy")
		cp.CopyFrom(a)
		cpBlob, _ = cp.MarshalBinary()
		mergeEqual(cpBlob, ablob, "salsa-copy-back")
		fast, _ := UnmarshalSalsa(ablob)
		slow, _ := UnmarshalSalsa(ablob)
		fast.MergeFrom(b)
		slow.mergeFromGeneric(b)
		fastBlob, _ := fast.MarshalBinary()
		slowBlob, _ := slow.MarshalBinary()
		mergeEqual(fastBlob, slowBlob, "salsa")

		// Subtract b back out of the union (contained), and out of a's own
		// layout, where counters clamp.
		fast.SubtractFrom(b)
		slow.subtractFromGeneric(b)
		fastBlob, _ = fast.MarshalBinary()
		slowBlob, _ = slow.MarshalBinary()
		mergeEqual(fastBlob, slowBlob, "salsa-subtract")
		fast, _ = UnmarshalSalsa(ablob)
		slow, _ = UnmarshalSalsa(ablob)
		fast.SubtractFrom(b)
		slow.subtractFromGeneric(b)
		fastBlob, _ = fast.MarshalBinary()
		slowBlob, _ = slow.MarshalBinary()
		mergeEqual(fastBlob, slowBlob, "salsa-subtract-clamp")

		fablob, _ := fa.MarshalBinary()
		fbblob, _ := fb.MarshalBinary()
		fcp, _ := UnmarshalFixed(fablob)
		fcp.CopyFrom(fb)
		cpBlob, _ = fcp.MarshalBinary()
		mergeEqual(cpBlob, fbblob, "fixed-copy")
		ffast, _ := UnmarshalFixed(fablob)
		fslow, _ := UnmarshalFixed(fablob)
		ffast.MergeFrom(fb)
		fslow.mergeFromGeneric(fb)
		fastBlob, _ = ffast.MarshalBinary()
		slowBlob, _ = fslow.MarshalBinary()
		mergeEqual(fastBlob, slowBlob, "fixed")

		ffast.SubtractFrom(fb)
		fslow.subtractFromGeneric(fb)
		fastBlob, _ = ffast.MarshalBinary()
		slowBlob, _ = fslow.MarshalBinary()
		mergeEqual(fastBlob, slowBlob, "fixed-subtract")
	})
}

// FuzzUnmarshal feeds arbitrary bytes to every decoder. None may panic,
// and whatever one accepts must re-marshal idempotently: its encoding
// decodes again and encodes to the same bytes. The seeds hold one
// canonical payload per decoder, the signed SALSA one in both merge
// encodings.
func FuzzUnmarshal(f *testing.F) {
	fixed := NewFixed(64, 8)
	fixed.Add(3, 300)
	fixedSign := NewFixedSign(64, 8)
	fixedSign.Add(3, -100)
	c := NewSalsa(64, 8, SumMerge, false)
	c.Add(3, 300)
	sign := NewSalsaSign(64, 8, false)
	sign.Add(5, -300)
	signCompact := NewSalsaSign(64, 8, true)
	signCompact.Add(5, 300)
	tango := NewTango(64, 8, MaxMerge)
	tango.Add(3, 300)
	for _, m := range []encoding.BinaryMarshaler{fixed, fixedSign, c, sign, signCompact, tango} {
		good, err := m.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xa0, 0x15, 0x5a})
	decoders := []struct {
		name   string
		decode func([]byte) (encoding.BinaryMarshaler, error)
	}{
		{"Fixed", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalFixed(b) }},
		{"FixedSign", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalFixedSign(b) }},
		{"Salsa", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalSalsa(b) }},
		{"SalsaSign", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalSalsaSign(b) }},
		{"Tango", func(b []byte) (encoding.BinaryMarshaler, error) { return UnmarshalTango(b) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range decoders {
			a, err := d.decode(data)
			if err != nil {
				continue
			}
			once, err := a.MarshalBinary()
			if err != nil {
				t.Fatalf("%s: marshal of an accepted payload: %v", d.name, err)
			}
			b, err := d.decode(once)
			if err != nil {
				t.Fatalf("%s: its own encoding does not decode: %v", d.name, err)
			}
			twice, err := b.MarshalBinary()
			if err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("%s: re-marshal differs (err %v)", d.name, err)
			}
		}
	})
}
