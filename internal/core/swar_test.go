package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The SWAR kernels of merge.go must be byte-for-byte equivalent to the
// per-counter reference paths they replace, and sketch-union merging must be
// grouping-independent (associative and commutative) so the sliding window's
// two-stack rotation can reassociate bucket merges freely. Both properties
// are pinned here over randomized op sequences.
//
// Known, documented relaxations (see also the internal/window package doc):
//   - the in-memory merges odometer is path-dependent (it counts raise
//     operations, which depend on merge order); it is not serialized, so
//     marshal-byte comparisons are unaffected. On words whose layouts
//     already agree the kernel replays overflows per counter, and the
//     equivalence tests require its odometer to match the reference's
//     exactly; on words widened to a union layout it counts the blocks
//     joined, which may group the reference's raises differently, so there
//     only the bytes are compared.
//   - signed counter arrays lose byte-level associativity once mixed-sign
//     values make intermediate magnitudes cross a counter-size threshold in
//     one grouping but not another (TestSalsaSignMixedSignGrouping shows the
//     layouts diverging while every grouping remains a valid, mass-
//     conserving union). With non-negative values — the windowed regime the
//     rotation relies on — associativity is byte-exact.

// cloneFixed round-trips f through its marshal format.
func cloneFixed(t *testing.T, f *Fixed) *Fixed {
	t.Helper()
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := UnmarshalFixed(blob)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cloneFixedSign(t *testing.T, f *FixedSign) *FixedSign {
	t.Helper()
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c, err := UnmarshalFixedSign(blob)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cloneSalsa(t *testing.T, c *Salsa) *Salsa {
	t.Helper()
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	n, err := UnmarshalSalsa(blob)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func cloneSalsaSign(t *testing.T, c *SalsaSign) *SalsaSign {
	t.Helper()
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	n, err := UnmarshalSalsaSign(blob)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func marshalOf(t *testing.T, m interface{ MarshalBinary() ([]byte, error) }) []byte {
	t.Helper()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// randFixed populates a Fixed with masses that straddle the saturation point
// so both the pure-SWAR and the clamping fallback word paths run.
func randFixed(rng *rand.Rand, width int, bits uint) *Fixed {
	f := NewFixed(width, bits)
	max := int64(1 << 30)
	if bits < 31 {
		max = int64(maxValue(bits))
	}
	for op := 0; op < width*2; op++ {
		f.Add(rng.Intn(width), rng.Int63n(max+1))
	}
	return f
}

func randFixedSign(rng *rand.Rand, width int, bits uint, mixed bool) *FixedSign {
	f := NewFixedSign(width, bits)
	max := int64(1 << 30)
	if bits < 32 {
		max = int64(maxValue(bits) >> 1)
	}
	for op := 0; op < width*2; op++ {
		v := rng.Int63n(max + 1)
		if mixed && rng.Intn(2) == 0 {
			v = -v
		}
		f.Add(rng.Intn(width), v)
	}
	return f
}

func randSalsa(rng *rand.Rand, width int, s uint, policy MergePolicy, hot int) *Salsa {
	c := NewSalsa(width, s, policy, false)
	for op := 0; op < width*4; op++ {
		// A few hot slots force merges (diverging layouts, overflow
		// cascades); the rest stay at low levels.
		slot := rng.Intn(width)
		if hot > 0 && rng.Intn(4) == 0 {
			slot = rng.Intn(hot)
		}
		c.Add(slot, rng.Int63n(1<<uint(rng.Intn(int(s)+4))))
	}
	return c
}

func randSalsaSign(rng *rand.Rand, width int, s uint, hot int, mixed bool) *SalsaSign {
	c := NewSalsaSign(width, s, false)
	for op := 0; op < width*4; op++ {
		slot := rng.Intn(width)
		if hot > 0 && rng.Intn(4) == 0 {
			slot = rng.Intn(hot)
		}
		v := rng.Int63n(1 << uint(rng.Intn(int(s)+4)))
		if mixed && rng.Intn(2) == 0 {
			v = -v
		}
		c.Add(slot, v)
	}
	return c
}

// TestSWARKernelEquivalenceFixed merges random pairs through the kernel and
// the reference loop and requires marshal-byte-identical results, for both
// union and subtraction, across every counter size.
func TestSWARKernelEquivalenceFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1701))
	for _, bits := range []uint{1, 2, 4, 8, 16, 32, 64} {
		for trial := 0; trial < 20; trial++ {
			width := 1 + rng.Intn(200)
			a, b := randFixed(rng, width, bits), randFixed(rng, width, bits)
			fast, slow := cloneFixed(t, a), cloneFixed(t, a)
			fast.MergeFrom(b)
			slow.mergeFromGeneric(b)
			if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
				t.Fatalf("bits=%d trial=%d: SWAR merge differs from reference", bits, trial)
			}
			fast.SubtractFrom(b)
			slow.subtractFromGeneric(b)
			if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
				t.Fatalf("bits=%d trial=%d: SWAR subtract differs from reference", bits, trial)
			}
		}
	}
}

// TestSWARKernelEquivalenceFixedSign is the signed version, covering both
// scales and mixed-sign values around the ± saturation points.
func TestSWARKernelEquivalenceFixedSign(t *testing.T) {
	rng := rand.New(rand.NewSource(1702))
	for _, bits := range []uint{2, 4, 8, 16, 32, 64} {
		for trial := 0; trial < 20; trial++ {
			width := 1 + rng.Intn(200)
			a := randFixedSign(rng, width, bits, true)
			b := randFixedSign(rng, width, bits, true)
			for _, scale := range []int64{1, -1} {
				fast, slow := cloneFixedSign(t, a), cloneFixedSign(t, a)
				fast.MergeFrom(b, scale)
				slow.mergeFromGeneric(b, scale)
				if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
					t.Fatalf("bits=%d trial=%d scale=%d: SWAR merge differs from reference", bits, trial, scale)
				}
			}
		}
	}
}

// TestSWARKernelEquivalenceSalsa pins the same-layout word path (clone pairs
// share layouts bit-for-bit, so doubling values exercises the overflow
// fallback and its level-raises, odometer included) and the differing-layout
// words, which sum-merge rows widen to the union layout and max-merge rows
// replay per counter, for both policies and all base sizes.
func TestSWARKernelEquivalenceSalsa(t *testing.T) {
	rng := rand.New(rand.NewSource(1703))
	for _, s := range []uint{1, 2, 4, 8, 16, 32} {
		for _, policy := range []MergePolicy{SumMerge, MaxMerge} {
			for trial := 0; trial < 12; trial++ {
				width := 64 * (1 + rng.Intn(4))
				a := randSalsa(rng, width, s, policy, 4)
				// Same-layout case: merge a clone (identical layout and
				// values — the doubling drives overflow cascades).
				fast, slow := cloneSalsa(t, a), cloneSalsa(t, a)
				src := cloneSalsa(t, a)
				fast.MergeFrom(src)
				slow.mergeFromGeneric(src)
				if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
					t.Fatalf("s=%d %v trial=%d: same-layout SWAR merge differs", s, policy, trial)
				}
				if fast.Merges() != slow.Merges() {
					t.Fatalf("s=%d %v trial=%d: raise odometer %d != %d", s, policy, trial, fast.Merges(), slow.Merges())
				}
				// Independent pair: layouts differ in most words, which the
				// kernel widens (sum) or replays per counter (max).
				b := randSalsa(rng, width, s, policy, 4)
				fast2, slow2 := cloneSalsa(t, a), cloneSalsa(t, a)
				fast2.MergeFrom(b)
				slow2.mergeFromGeneric(b)
				if !bytes.Equal(marshalOf(t, fast2), marshalOf(t, slow2)) {
					t.Fatalf("s=%d %v trial=%d: mixed-layout merge differs", s, policy, trial)
				}
				if policy == SumMerge {
					sub, subRef := cloneSalsa(t, fast), cloneSalsa(t, fast)
					sub.SubtractFrom(a)
					subRef.subtractFromGeneric(a)
					if !bytes.Equal(marshalOf(t, sub), marshalOf(t, subRef)) {
						t.Fatalf("s=%d trial=%d: same-layout SWAR subtract differs", s, trial)
					}
				}
			}
		}
		for trial := 0; trial < 12; trial++ {
			width := 64 * (1 + rng.Intn(4))
			what := func(c string) string { return fmt.Sprintf("s=%d trial=%d: %s", s, trial, c) }
			// An aggregate of 8–16 independent rows covers a single
			// contribution's layout in most words.
			agg := NewSalsa(width, s, SumMerge, false)
			for m := 8 + rng.Intn(9); m > 0; m-- {
				agg.mergeFromGeneric(randSalsa(rng, width, s, SumMerge, 4))
			}
			member := randSalsa(rng, width, s, SumMerge, 4)
			checkSalsaMerge(t, what("aggregate ∪ fresh row"), agg, member)
			base := cloneSalsa(t, member)
			for op := 0; op < width/4; op++ {
				member.Add(rng.Intn(width), rng.Int63n(1<<uint(rng.Intn(int(s)+4))))
			}
			delta := cloneSalsa(t, member)
			delta.subtractFromGeneric(base)
			checkSalsaMerge(t, what("aggregate ∪ delta"), agg, delta)
			agg.mergeFromGeneric(member)
			checkSalsaSubtract(t, what("aggregate − contained member"), agg, member)
			checkSalsaSubtract(t, what("aggregate − contained delta"), agg, delta)
			checkSalsaSubtract(t, what("member − aggregate (clamping)"), member, agg)
			// Near-full rows with independent layouts: most union counters
			// overflow, joins cascade, and some 64-bit counters saturate.
			x, y := nearFullSalsa(rng, width, s), nearFullSalsa(rng, width, s)
			checkSalsaMerge(t, what("near-full ∪ near-full"), x, y)
			checkSalsaSubtract(t, what("near-full − near-full (clamping)"), x, y)
		}
		x, y := siblingOverflowPair(s)
		checkSalsaMerge(t, fmt.Sprintf("s=%d: sibling counters overflow together", s), x, y)
		checkSalsaSubtract(t, fmt.Sprintf("s=%d: subtract across the sibling layouts", s), x, y)
	}
}

// checkSalsaMerge merges src into clones of dst through MergeFrom and
// through the reference and requires identical bytes.
func checkSalsaMerge(t *testing.T, what string, dst, src *Salsa) {
	t.Helper()
	fast, slow := cloneSalsa(t, dst), cloneSalsa(t, dst)
	fast.MergeFrom(src)
	slow.mergeFromGeneric(src)
	if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
		t.Fatalf("%s: kernel merge differs from reference", what)
	}
}

// checkSalsaSubtract is checkSalsaMerge for SubtractFrom.
func checkSalsaSubtract(t *testing.T, what string, dst, src *Salsa) {
	t.Helper()
	fast, slow := cloneSalsa(t, dst), cloneSalsa(t, dst)
	fast.SubtractFrom(src)
	slow.subtractFromGeneric(src)
	if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
		t.Fatalf("%s: kernel subtract differs from reference", what)
	}
}

// setSalsaCounter makes the 2^lvl-aligned block at start one counter
// holding v.
func setSalsaCounter(c *Salsa, start int, lvl uint, v uint64) {
	if lvl > 0 {
		c.lay.mergeTo(start, lvl)
	}
	writeAligned(c.words, uint(start)*c.s, c.s<<lvl, v)
}

// nearFullSalsa builds a sum-merge row with a random layout whose counters
// below 64 bits sit in the top quarter of their range; 64-bit counters take
// any value.
func nearFullSalsa(rng *rand.Rand, width int, s uint) *Salsa {
	c := NewSalsa(width, s, SumMerge, false)
	for i := 0; i < width; {
		lvl := uint(rng.Intn(int(c.maxLvl) + 1))
		for i%(1<<lvl) != 0 {
			lvl--
		}
		v := rng.Uint64()
		if size := s << lvl; size < 64 {
			v = maxValue(size) - v%(maxValue(size)/4+1)
		}
		setSalsaCounter(c, i, lvl, v)
		i += 1 << lvl
	}
	return c
}

// siblingOverflowPair returns two rows whose first counter words hold
// differing layouts with two sibling union counters that both overflow,
// so each must join its parent block exactly once, and whose second words
// sum to more than a 64-bit counter holds.
func siblingOverflowPair(s uint) (x, y *Salsa) {
	x, y = NewSalsa(128, s, SumMerge, false), NewSalsa(128, s, SumMerge, false)
	lanes := int(64 / s)
	if lanes >= 4 {
		// Lanes 0–1 are one counter in x, lanes 2–3 one counter in y; the
		// union adds a full counter to the sum of two base counters.
		setSalsaCounter(x, 0, 1, maxValue(2*s))
		setSalsaCounter(x, 2, 0, maxValue(s))
		setSalsaCounter(x, 3, 0, maxValue(s))
		setSalsaCounter(y, 0, 0, 1)
		setSalsaCounter(y, 1, 0, 1)
		setSalsaCounter(y, 2, 1, maxValue(2*s))
	} else {
		setSalsaCounter(x, 0, 0, maxValue(s))
		setSalsaCounter(x, 1, 0, maxValue(s))
		setSalsaCounter(y, 0, 1, 3)
	}
	setSalsaCounter(x, lanes, x.maxLvl, ^uint64(0)-5)
	for i := lanes; i < 2*lanes; i++ {
		setSalsaCounter(y, i, 0, 3)
	}
	return x, y
}

// TestSWARKernelEquivalenceSalsaSign is the sign-magnitude version: the word
// path only accepts all-non-negative words, so mixed-sign inputs exercise
// the per-counter fallback heavily.
func TestSWARKernelEquivalenceSalsaSign(t *testing.T) {
	rng := rand.New(rand.NewSource(1704))
	for _, s := range []uint{2, 4, 8, 16, 32} {
		for _, mixed := range []bool{false, true} {
			for trial := 0; trial < 12; trial++ {
				width := 64 * (1 + rng.Intn(4))
				a := randSalsaSign(rng, width, s, 4, mixed)
				fast, slow := cloneSalsaSign(t, a), cloneSalsaSign(t, a)
				src := cloneSalsaSign(t, a)
				fast.MergeFrom(src, 1)
				slow.mergeFromGeneric(src, 1)
				if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
					t.Fatalf("s=%d mixed=%v trial=%d: same-layout SWAR merge differs", s, mixed, trial)
				}
				if fast.Merges() != slow.Merges() {
					t.Fatalf("s=%d mixed=%v trial=%d: raise odometer %d != %d", s, mixed, trial, fast.Merges(), slow.Merges())
				}
				// Subtracting the original back out exercises the scale −1
				// word path (counters return exactly to a's doubled-minus-a
				// state through non-negative differences when !mixed).
				fast.MergeFrom(src, -1)
				slow.mergeFromGeneric(src, -1)
				if !bytes.Equal(marshalOf(t, fast), marshalOf(t, slow)) {
					t.Fatalf("s=%d mixed=%v trial=%d: SWAR subtract differs", s, mixed, trial)
				}
				b := randSalsaSign(rng, width, s, 4, mixed)
				for _, scale := range []int64{1, -1} {
					fast2, slow2 := cloneSalsaSign(t, a), cloneSalsaSign(t, a)
					fast2.MergeFrom(b, scale)
					slow2.mergeFromGeneric(b, scale)
					if !bytes.Equal(marshalOf(t, fast2), marshalOf(t, slow2)) {
						t.Fatalf("s=%d mixed=%v trial=%d scale=%d: mixed-layout merge differs", s, mixed, trial, scale)
					}
				}
			}
		}
	}
}

// mergeGroupings returns the three-way groupings ((A∪B)∪C, A∪(B∪C),
// (A∪C)∪B) of rows a, b, c, built with the given clone and merge functions.
func mergeGroupings[R any](clone func(R) R, merge func(dst, src R), a, b, c R) [3]R {
	ab := clone(a)
	merge(ab, b)
	merge(ab, c) // (A∪B)∪C

	bc := clone(b)
	merge(bc, c)
	abc := clone(a)
	merge(abc, bc) // A∪(B∪C)

	ac := clone(a)
	merge(ac, c)
	merge(ac, b) // (A∪C)∪B
	return [3]R{ab, abc, ac}
}

// TestMergeAssociativityFixed: saturating unsigned addition is
// min(Σ, max), so every grouping must agree byte-for-byte.
func TestMergeAssociativityFixed(t *testing.T) {
	rng := rand.New(rand.NewSource(1705))
	for _, bits := range []uint{4, 8, 32} {
		for trial := 0; trial < 10; trial++ {
			width := 1 + rng.Intn(150)
			a, b, c := randFixed(rng, width, bits), randFixed(rng, width, bits), randFixed(rng, width, bits)
			g := mergeGroupings(
				func(f *Fixed) *Fixed { return cloneFixed(t, f) },
				func(dst, src *Fixed) { dst.MergeFrom(src) },
				a, b, c)
			ref := marshalOf(t, g[0])
			for i := 1; i < 3; i++ {
				if !bytes.Equal(ref, marshalOf(t, g[i])) {
					t.Fatalf("bits=%d trial=%d: grouping %d differs", bits, trial, i)
				}
			}
		}
	}
}

// TestMergeAssociativitySalsa: under non-negative mass, a SALSA union's
// final values are saturating block sums and its final layout is the least
// fixpoint over those sums — both grouping-independent, for both policies.
// This is the property the sliding window's two-stack rotation relies on.
func TestMergeAssociativitySalsa(t *testing.T) {
	rng := rand.New(rand.NewSource(1706))
	for _, s := range []uint{4, 8, 16} {
		for _, policy := range []MergePolicy{SumMerge, MaxMerge} {
			for trial := 0; trial < 10; trial++ {
				width := 64 * (1 + rng.Intn(3))
				a := randSalsa(rng, width, s, policy, 6)
				b := randSalsa(rng, width, s, policy, 6)
				c := randSalsa(rng, width, s, policy, 6)
				g := mergeGroupings(
					func(r *Salsa) *Salsa { return cloneSalsa(t, r) },
					func(dst, src *Salsa) { dst.MergeFrom(src) },
					a, b, c)
				ref := marshalOf(t, g[0])
				for i := 1; i < 3; i++ {
					if !bytes.Equal(ref, marshalOf(t, g[i])) {
						t.Fatalf("s=%d %v trial=%d: grouping %d differs", s, policy, trial, i)
					}
				}
			}
		}
	}
}

// TestMergeAssociativitySalsaSign: with non-negative values (the windowed
// regime), sign-magnitude unions are grouping-independent byte-for-byte.
func TestMergeAssociativitySalsaSign(t *testing.T) {
	rng := rand.New(rand.NewSource(1707))
	for _, s := range []uint{4, 8, 16} {
		for trial := 0; trial < 10; trial++ {
			width := 64 * (1 + rng.Intn(3))
			a := randSalsaSign(rng, width, s, 6, false)
			b := randSalsaSign(rng, width, s, 6, false)
			c := randSalsaSign(rng, width, s, 6, false)
			g := mergeGroupings(
				func(r *SalsaSign) *SalsaSign { return cloneSalsaSign(t, r) },
				func(dst, src *SalsaSign) { dst.MergeFrom(src, 1) },
				a, b, c)
			ref := marshalOf(t, g[0])
			for i := 1; i < 3; i++ {
				if !bytes.Equal(ref, marshalOf(t, g[i])) {
					t.Fatalf("s=%d trial=%d: grouping %d differs", s, trial, i)
				}
			}
		}
	}
}

// tangoCounter is one Tango counter as seen by Counters; a full dump is the
// comparison key for Tango (which has no marshal format).
type tangoCounter struct {
	lo, hi int
	val    uint64
}

func tangoDump(t *Tango) []tangoCounter {
	var out []tangoCounter
	t.Counters(func(lo, hi int, val uint64) bool {
		out = append(out, tangoCounter{lo, hi, val})
		return true
	})
	return out
}

func cloneTango(t *Tango) *Tango {
	n := NewTango(t.width, t.s, t.policy)
	copy(n.words, t.words)
	n.link = t.link.Clone()
	return n
}

func randTango(rng *rand.Rand, width int, s uint, policy MergePolicy, hot int) *Tango {
	c := NewTango(width, s, policy)
	for op := 0; op < width*4; op++ {
		slot := rng.Intn(width)
		if hot > 0 && rng.Intn(4) == 0 {
			slot = rng.Intn(hot)
		}
		c.Add(slot, rng.Int63n(1<<uint(rng.Intn(int(s)+4))))
	}
	return c
}

// TestMergeAssociativityTango: Tango's span growth is deterministic and
// always works toward the SALSA-aligned enclosing block, so unions converge
// to the same spans and values under any grouping — pinned here because the
// windowed Tango backend reassociates bucket merges through the two-stack
// rotation exactly like the SALSA backends.
func TestMergeAssociativityTango(t *testing.T) {
	rng := rand.New(rand.NewSource(1709))
	for _, s := range []uint{2, 4, 8, 16} {
		for _, policy := range []MergePolicy{SumMerge, MaxMerge} {
			for trial := 0; trial < 10; trial++ {
				width := 1 << (5 + rng.Intn(3))
				a := randTango(rng, width, s, policy, 6)
				b := randTango(rng, width, s, policy, 6)
				c := randTango(rng, width, s, policy, 6)
				g := mergeGroupings(
					cloneTango,
					func(dst, src *Tango) { dst.MergeFrom(src) },
					a, b, c)
				ref := tangoDump(g[0])
				for i := 1; i < 3; i++ {
					if !reflect.DeepEqual(ref, tangoDump(g[i])) {
						t.Fatalf("s=%d %v trial=%d: grouping %d differs", s, policy, trial, i)
					}
				}
			}
		}
	}
}

// blockTotalSigned sums a SalsaSign row's counters over the 2^lvl-aligned
// block at start, counting each counter once.
func blockTotalSigned(c *SalsaSign, start int, lvl uint) int64 {
	var total int64
	end := start + 1<<lvl
	c.Counters(func(lo int, l uint, val int64) bool {
		if lo >= end {
			return false
		}
		if lo >= start {
			total += val
		}
		return true
	})
	return total
}

// TestSalsaSignMixedSignGrouping documents the signed relaxation: mixed-sign
// streams can make intermediate magnitudes cross a counter-size threshold in
// one grouping but not another, so the merge layouts (and hence bytes) may
// diverge — but every grouping remains a valid mass-conserving union: at
// the coarsest common level of any slot, the block sums agree exactly.
func TestSalsaSignMixedSignGrouping(t *testing.T) {
	// The deterministic divergence: A has +120 in slot 0 (8-bit counters
	// saturate magnitude at 127), B has +10, C has −10. (A∪B) overflows and
	// raises slot 0 to a 16-bit counter; B∪C cancels first, so A∪(B∪C)
	// keeps slot 0 unmerged.
	mk := func(v int64) *SalsaSign {
		c := NewSalsaSign(64, 8, false)
		c.Add(0, v)
		return c
	}
	a, b, c := mk(120), mk(10), mk(-10)
	ab := cloneSalsaSign(t, a)
	ab.MergeFrom(b, 1)
	ab.MergeFrom(c, 1)
	bc := cloneSalsaSign(t, b)
	bc.MergeFrom(c, 1)
	abc := cloneSalsaSign(t, a)
	abc.MergeFrom(bc, 1)
	if ab.Level(0) != 1 || abc.Level(0) != 0 {
		t.Fatalf("expected layout divergence: levels %d vs %d", ab.Level(0), abc.Level(0))
	}
	// Both groupings conserve the block mass at the coarser level.
	if got, want := blockTotalSigned(ab, 0, 1), blockTotalSigned(abc, 0, 1); got != want || got != 120 {
		t.Fatalf("mass not conserved: %d vs %d", got, want)
	}

	// Randomized version of the mass-conservation property.
	rng := rand.New(rand.NewSource(1708))
	for trial := 0; trial < 10; trial++ {
		width := 64
		x := randSalsaSign(rng, width, 8, 6, true)
		y := randSalsaSign(rng, width, 8, 6, true)
		z := randSalsaSign(rng, width, 8, 6, true)
		g := mergeGroupings(
			func(r *SalsaSign) *SalsaSign { return cloneSalsaSign(t, r) },
			func(dst, src *SalsaSign) { dst.MergeFrom(src, 1) },
			x, y, z)
		for i := 0; i < width; i++ {
			l := g[0].Level(i)
			for _, o := range g[1:] {
				if ol := o.Level(i); ol > l {
					l = ol
				}
			}
			start := i &^ (1<<l - 1)
			want := blockTotalSigned(g[0], start, l)
			for gi, o := range g[1:] {
				if got := blockTotalSigned(o, start, l); got != want {
					t.Fatalf("trial=%d slot=%d: grouping %d block sum %d != %d", trial, i, gi+1, got, want)
				}
			}
		}
	}
}
