package core

import (
	"math/rand"
	"testing"
)

// TestSalsaSignAddSignedFastEquivalence pins the inline batch update of
// AddSignedSlots against the general Add: small base counters force
// constant merging, so the overflow fallback fires heavily, and s = 2, 8
// and 16 take both the probeLevel and the probeLevel8 route.
func TestSalsaSignAddSignedFastEquivalence(t *testing.T) {
	for _, s := range []uint{2, 8, 16} {
		rng := rand.New(rand.NewSource(int64(s)))
		fast := NewSalsaSign(256, s, false)
		gen := NewSalsaSign(256, s, false)
		slots, signs := make([]uint32, 16), make([]int8, 16)
		for step := 0; step < 2500; step++ {
			v := int64(1 + rng.Intn(4))
			for j := range slots {
				slots[j], signs[j] = uint32(rng.Intn(256)), int8(1-2*rng.Intn(2))
			}
			fast.AddSignedSlots(slots, signs, v)
			for j, slot := range slots {
				gen.Add(int(slot), int64(signs[j])*v)
			}
		}
		for i := range fast.words {
			if fast.words[i] != gen.words[i] {
				t.Fatalf("s=%d: counter words diverge at %d", s, i)
			}
		}
		for i := 0; i < 256; i++ {
			if fast.Level(i) != gen.Level(i) {
				t.Fatalf("s=%d: level(%d): %d != %d", s, i, fast.Level(i), gen.Level(i))
			}
		}
	}
}

// TestSalsaSignMinInt64Clamp pins the negative-zero regression: a sum
// landing exactly on MinInt64 passes satAddSigned unsaturated, and an
// unclamped sign-magnitude encode at size 64 would fold it to 0 instead of
// the general path's -maxMag(64) saturation.
func TestSalsaSignMinInt64Clamp(t *testing.T) {
	const minI64 = -1 << 63
	build := func() *SalsaSign {
		c := NewSalsaSign(64, 8, false)
		c.raiseTo(0, 3) // one fully-merged 64-bit counter over slots 0..7
		return c
	}
	want := build()
	want.Add(0, minI64)
	fast := build()
	fast.AddSignedSlots([]uint32{0}, []int8{1}, minI64)
	if fast.Value(0) != want.Value(0) || want.Value(0) != -maxMag(64) {
		t.Fatalf("AddSignedSlots: got %d, general %d, want %d", fast.Value(0), want.Value(0), -maxMag(64))
	}
	rows := []*SalsaSign{build()}
	// Mask 0 routes the item to slot 0; ±1·MinInt64 is MinInt64 either way
	// (two's-complement negation wraps), so the sign hash drops out.
	SalsaSignUpdateEach(rows, []uint64{0}, []uint64{0}, 0, 1, minI64)
	gen := build()
	gen.Add(0, minI64)
	if rows[0].Value(0) != gen.Value(0) {
		t.Fatalf("SalsaSignUpdateEach: got %d, general %d", rows[0].Value(0), gen.Value(0))
	}
}

// TestProbeLevel8 pins the parallel three-bit probe against the layout's
// authoritative level over every state the benchmark regime reaches.
func TestProbeLevel8(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arr := NewSalsa(512, 8, MaxMerge, false)
	check := func() {
		for i := 0; i < 512; i++ {
			if got, want := probeLevel8(arr.blWords[i>>6], uint(i)), arr.lay.level(i); got != want {
				t.Fatalf("probeLevel8(%d) = %d, want %d", i, got, want)
			}
		}
	}
	check()
	for step := 0; step < 60000; step++ {
		arr.Add(rng.Intn(512), int64(1+rng.Intn(200)))
		if step%5000 == 0 {
			check()
		}
	}
	check()
	// Split back down (the AEE downsampling route) and re-check.
	arr.Halve(false, nil, true)
	check()
}

// TestArenaRows pins the arena constructors: identical geometry and
// behaviour to loose rows, contiguous backing, and cache-line alignment.
func TestArenaRows(t *testing.T) {
	rows := NewSalsaRows(4, 256, 8, MaxMerge, false)
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Width() != 256 || r.BaseBits() != 8 {
			t.Fatal("arena row geometry mismatch")
		}
	}
	// Rows must be independent: writing one must not affect the others.
	rows[0].Add(0, 200)
	rows[1].Add(0, 1)
	if rows[0].Value(0) != 200 || rows[1].Value(0) != 1 || rows[2].Value(0) != 0 {
		t.Fatal("arena rows are not independent")
	}
	tango := NewTangoRows(3, 128, 8, MaxMerge)
	tango[1].Add(5, 300) // forces a link-bit write
	if tango[0].Value(5) != 0 || tango[2].Value(5) != 0 {
		t.Fatal("tango arena rows are not independent")
	}
	signed := NewSalsaSignRows(5, 128, 8, false)
	signed[2].Add(7, -3)
	if signed[2].Value(7) != -3 || signed[3].Value(7) != 0 {
		t.Fatal("signed arena rows are not independent")
	}
	fixed := NewFixedRows(4, 100, 32)
	fixed[3].Add(99, 7)
	if fixed[3].Value(99) != 7 || fixed[0].Value(99) != 0 {
		t.Fatal("fixed arena rows are not independent")
	}
	fs := NewFixedSignRows(4, 100, 32)
	fs[0].Add(1, -9)
	if fs[0].Value(1) != -9 || fs[1].Value(1) != 0 {
		t.Fatal("fixed-sign arena rows are not independent")
	}
}
