package core

import (
	"math/rand"
	"testing"
	"unsafe"

	"salsa/internal/hashing"
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

	// Layout: each row's counter words start on a 64-byte line, a row's
	// merge or link words start alignUp(counter words) after its counters,
	// and row i+1 starts where row i's aligned segments end.
	compact := NewSalsaRows(3, 96, 8, SumMerge, true)
	segs := map[string][][2][]uint64{} // per row: counter words, merge or link words
	for _, r := range rows {
		segs["salsa"] = append(segs["salsa"], [2][]uint64{r.words, r.blWords})
	}
	for _, r := range compact {
		segs["salsa-compact"] = append(segs["salsa-compact"], [2][]uint64{r.words, nil})
	}
	for _, r := range signed {
		segs["salsa-sign"] = append(segs["salsa-sign"], [2][]uint64{r.words, r.blWords})
	}
	for _, r := range tango {
		segs["tango"] = append(segs["tango"], [2][]uint64{r.words, r.link.Words()})
	}
	for _, r := range fixed {
		segs["fixed"] = append(segs["fixed"], [2][]uint64{r.words, nil})
	}
	for _, r := range fs {
		segs["fixed-sign"] = append(segs["fixed-sign"], [2][]uint64{r.words, nil})
	}
	addr := func(w []uint64) uintptr { return uintptr(unsafe.Pointer(&w[0])) }
	for name, rs := range segs {
		cw := alignUp(len(rs[0][0]))
		stride := cw
		if rs[0][1] != nil {
			stride += alignUp(len(rs[0][1]))
		}
		for i, r := range rs {
			if addr(r[0])%64 != 0 {
				t.Errorf("%s row %d: counter words start off a 64-byte line", name, i)
			}
			if r[1] != nil && addr(r[1]) != addr(r[0])+uintptr(8*cw) {
				t.Errorf("%s row %d: merge words do not follow the counter words", name, i)
			}
			if i > 0 && addr(r[0]) != addr(rs[i-1][0])+uintptr(8*stride) {
				t.Errorf("%s row %d does not follow row %d in the arena", name, i, i-1)
			}
		}
	}
}

// TestSalsaKernelsAtTopLevel drives simple-encoding rows of base sizes
// other than 8 to their top merge level and holds every branchless kernel
// to the general methods there: SalsaUpdateEach, SalsaQueryEach,
// SalsaMinSlots, Salsa.AddSlots and SalsaConservative on unsigned rows of
// base sizes 2, 4, 16 and 32, and SalsaSignUpdateEach on signed rows of
// base sizes 2, 16 and 32. Every other block starts merged to the top
// level, and weights up to 2^34 carry the rest there, so a probe that
// stops a level short reads or writes half of a 64-bit counter.
func TestSalsaKernelsAtTopLevel(t *testing.T) {
	const width, depth, universe = 256, 3, 96
	mask := uint64(width - 1)
	seeds := []uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb}
	signSeeds := []uint64{7, 11, 13}
	slotsOf := func(x uint64) []uint32 {
		out := make([]uint32, depth)
		for i := range out {
			out[i] = uint32(hashing.Index(x, seeds[i], mask))
		}
		return out
	}
	for _, s := range []uint{2, 4, 16, 32} {
		for _, policy := range []MergePolicy{SumMerge, MaxMerge} {
			rng := rand.New(rand.NewSource(int64(s)))
			build := func() []*Salsa {
				rows := make([]*Salsa, depth)
				for i := range rows {
					rows[i] = NewSalsa(width, s, policy, false)
					for b := 0; b < width; b += 2 << rows[i].maxLvl {
						rows[i].raiseTo(b, rows[i].maxLvl)
					}
				}
				return rows
			}
			fast, gen := build(), build()
			probes := make([]Probe, depth)
			out := make([]uint64, depth)
			for step := 0; step < 400; step++ {
				x, v := uint64(rng.Intn(universe)), 1+rng.Int63n(1<<34)
				slots := slotsOf(x)
				switch step % 3 {
				case 0:
					SalsaUpdateEach(fast, seeds, mask, x, v)
					for i, r := range gen {
						r.Add(int(slots[i]), v)
					}
				case 1:
					for i, r := range fast {
						r.AddSlots(slots[i:i+1], v)
						gen[i].Add(int(slots[i]), v)
					}
				default:
					est := ^uint64(0)
					for i, r := range gen {
						est = min(est, r.Value(int(slots[i])))
					}
					target, want := satAdd(est, uint64(v)), ^uint64(0)
					for i, r := range gen {
						r.SetAtLeast(int(slots[i]), target)
						want = min(want, r.Value(int(slots[i])))
					}
					if got := SalsaConservative(fast, slots, uint64(v), probes); got != want {
						t.Fatalf("s=%d %v step %d: SalsaConservative = %d, general %d", s, policy, step, got, want)
					}
				}
				y := uint64(rng.Intn(universe))
				ys, want := slotsOf(y), ^uint64(0)
				for i, r := range gen {
					want = min(want, r.Value(int(ys[i])))
				}
				if got := SalsaQueryEach(fast, seeds, mask, y); got != want {
					t.Fatalf("s=%d %v step %d: SalsaQueryEach = %d, general %d", s, policy, step, got, want)
				}
				for i, r := range fast {
					out[0] = ^uint64(0)
					SalsaMinSlots(r, ys[i:i+1], out[:1])
					if w := gen[i].Value(int(ys[i])); out[0] != w {
						t.Fatalf("s=%d %v step %d: SalsaMinSlots row %d = %d, general %d", s, policy, step, i, out[0], w)
					}
				}
			}
			top := 0
			for i, r := range fast {
				for j := range r.words {
					if r.words[j] != gen[i].words[j] {
						t.Fatalf("s=%d %v: row %d words diverge at %d", s, policy, i, j)
					}
				}
				for slot := 0; slot < width; slot++ {
					if r.Level(slot) != gen[i].Level(slot) {
						t.Fatalf("s=%d %v: row %d level(%d): %d != %d", s, policy, i, slot, r.Level(slot), gen[i].Level(slot))
					}
					if r.Level(slot) == r.maxLvl && r.Value(slot) > 1<<32 {
						top++
					}
				}
			}
			if top == 0 {
				t.Fatalf("s=%d %v: no top-level counter holds more than 32 bits", s, policy)
			}
		}
	}
	for _, s := range []uint{2, 16, 32} {
		rng := rand.New(rand.NewSource(int64(s)))
		build := func() []*SalsaSign {
			rows := make([]*SalsaSign, depth)
			for i := range rows {
				rows[i] = NewSalsaSign(width, s, false)
				for b := 0; b < width; b += 2 << rows[i].maxLvl {
					rows[i].raiseTo(b, rows[i].maxLvl)
				}
			}
			return rows
		}
		fast, gen := build(), build()
		for step := 0; step < 400; step++ {
			x, v := uint64(rng.Intn(universe)), rng.Int63n(1<<35)-1<<34
			SalsaSignUpdateEach(fast, seeds, signSeeds, mask, x, v)
			for i, r := range gen {
				r.Add(int(hashing.Index(x, seeds[i], mask)), v*hashing.Sign(x, signSeeds[i]))
			}
		}
		top := 0
		for i, r := range fast {
			for j := range r.words {
				if r.words[j] != gen[i].words[j] {
					t.Fatalf("signed s=%d: row %d words diverge at %d", s, i, j)
				}
			}
			for slot := 0; slot < width; slot++ {
				if r.Level(slot) != gen[i].Level(slot) {
					t.Fatalf("signed s=%d: row %d level(%d): %d != %d", s, i, slot, r.Level(slot), gen[i].Level(slot))
				}
				if v := r.Value(slot); r.Level(slot) == r.maxLvl && (v > 1<<32 || v < -1<<32) {
					top++
				}
			}
		}
		if top == 0 {
			t.Fatalf("signed s=%d: no top-level counter holds more than 32 bits", s)
		}
	}
}
