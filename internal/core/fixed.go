package core

// Fixed is a packed array of w unsigned counters, each exactly b bits wide
// with b a power of two in {1, 2, 4, 8, 16, 32, 64}. Counters saturate at
// 2^b−1 instead of wrapping, matching the small-counter baseline in the
// paper ("the counter is only incremented if it does not overflow").
type Fixed struct {
	fixedArray
	maxV uint64
}

// NewFixed returns a Fixed array of width counters of bits bits each.
func NewFixed(width int, bits uint) *Fixed { return newFixed(newFixedArray(width, bits, 1, nil)) }

// newFixed wraps storage as a Fixed array.
func newFixed(a fixedArray) *Fixed { return &Fixed{fixedArray: a, maxV: maxValue(a.bits)} }

// Value returns the value of counter i.
//
//salsa:hotpath
func (f *Fixed) Value(i int) uint64 {
	return readAligned(f.words, uint(i)*f.bits, f.bits)
}

// Add adds v to counter i, saturating at the counter maximum; negative v
// subtracts, clamping at zero.
//
//salsa:hotpath
func (f *Fixed) Add(i int, v int64) {
	cur := f.Value(i)
	var nv uint64
	if v >= 0 {
		nv = satAdd(cur, uint64(v))
		if nv > f.maxV {
			nv = f.maxV
		}
	} else {
		d := uint64(-v)
		if d >= cur {
			nv = 0
		} else {
			nv = cur - d
		}
	}
	writeAligned(f.words, uint(i)*f.bits, f.bits, nv)
}

// SetAtLeast raises counter i to at least v (capped at the counter maximum).
// This is the conservative-update primitive.
//
//salsa:hotpath
func (f *Fixed) SetAtLeast(i int, v uint64) {
	if v > f.maxV {
		v = f.maxV
	}
	if v > f.Value(i) {
		writeAligned(f.words, uint(i)*f.bits, f.bits, v)
	}
}

// ZeroCount returns the number of zero-valued counters (used by the Linear
// Counting distinct-count estimator).
func (f *Fixed) ZeroCount() int {
	zeros := 0
	for i := 0; i < f.width; i++ {
		if f.Value(i) == 0 {
			zeros++
		}
	}
	return zeros
}

// ZeroFraction returns the fraction of zero-valued counters.
func (f *Fixed) ZeroFraction() float64 {
	return float64(f.ZeroCount()) / float64(f.width)
}

// Halve replaces every counter by either ⌊c/2⌋ (deterministic) or a sample
// from Binomial(c, 1/2) (probabilistic), the two AEE downsampling modes.
// rnd supplies random bits for the probabilistic mode and may be nil for the
// deterministic one.
func (f *Fixed) Halve(probabilistic bool, rnd func() uint64) {
	for i := 0; i < f.width; i++ {
		cur := f.Value(i)
		var nv uint64
		if probabilistic {
			nv = binomialHalf(cur, rnd)
		} else {
			nv = cur / 2
		}
		writeAligned(f.words, uint(i)*f.bits, f.bits, nv)
	}
}

// SameGeometry reports whether other can merge with f: decoders use it to
// reject payload combinations MergeFrom would panic on.
func (f *Fixed) SameGeometry(other *Fixed) bool {
	return f.width == other.width && f.bits == other.bits
}

// MergeFrom adds every counter of other into the corresponding counter of f,
// saturating. Both arrays must have the same geometry. The merge is
// word-parallel: 64/bits counters combine per step (see merge.go).
func (f *Fixed) MergeFrom(other *Fixed) {
	if f.width != other.width || f.bits != other.bits {
		panic("core: fixed geometry mismatch")
	}
	f.mergeWords(other.words)
}

// mergeFromGeneric is the per-counter reference merge; mergeWords must stay
// byte-for-byte equivalent to it (pinned by the SWAR equivalence tests).
func (f *Fixed) mergeFromGeneric(other *Fixed) {
	for i := 0; i < f.width; i++ {
		nv := satAdd(f.Value(i), other.Value(i))
		if nv > f.maxV {
			nv = f.maxV
		}
		writeAligned(f.words, uint(i)*f.bits, f.bits, nv)
	}
}

// SubtractFrom subtracts every counter of other from f, clamping at zero.
// Word-parallel like MergeFrom.
func (f *Fixed) SubtractFrom(other *Fixed) {
	if f.width != other.width || f.bits != other.bits {
		panic("core: fixed geometry mismatch")
	}
	f.subtractWords(other.words)
}

// subtractFromGeneric is the per-counter reference subtraction.
func (f *Fixed) subtractFromGeneric(other *Fixed) {
	for i := 0; i < f.width; i++ {
		cur, d := f.Value(i), other.Value(i)
		if d >= cur {
			cur = 0
		} else {
			cur -= d
		}
		writeAligned(f.words, uint(i)*f.bits, f.bits, cur)
	}
}

// FixedSign is a packed array of w signed counters of b bits each, stored in
// two's complement, saturating at ±(2^(b−1)−1). It is the baseline row for
// the Count Sketch.
type FixedSign struct {
	fixedArray
	maxV int64
}

// NewFixedSign returns a FixedSign array of width counters of bits bits each
// (bits a power of two in {2, ..., 64}).
func NewFixedSign(width int, bits uint) *FixedSign {
	return newFixedSign(newFixedArray(width, bits, 2, nil))
}

// newFixedSign wraps storage as a FixedSign array.
func newFixedSign(a fixedArray) *FixedSign {
	return &FixedSign{fixedArray: a, maxV: int64(maxValue(a.bits) >> 1)}
}

// Value returns the value of counter i.
//
//salsa:hotpath
func (f *FixedSign) Value(i int) int64 {
	raw := readAligned(f.words, uint(i)*f.bits, f.bits)
	return signExtend(raw, f.bits)
}

// Add adds v to counter i, saturating at ±(2^(b−1)−1).
//
//salsa:hotpath
func (f *FixedSign) Add(i int, v int64) {
	nv := satAddSigned(f.Value(i), v)
	if nv > f.maxV {
		nv = f.maxV
	} else if nv < -f.maxV {
		nv = -f.maxV
	}
	writeAligned(f.words, uint(i)*f.bits, f.bits, uint64(nv)&maxValue(f.bits))
}

// SameGeometry reports whether other can merge with f: decoders use it to
// reject payload combinations MergeFrom would panic on.
func (f *FixedSign) SameGeometry(other *FixedSign) bool {
	return f.width == other.width && f.bits == other.bits
}

// MergeFrom adds scale times every counter of other into f (scale is +1 for
// sketch union, −1 for subtraction). For ±1 scales on sub-64-bit counters
// the merge is word-parallel (see merge.go).
func (f *FixedSign) MergeFrom(other *FixedSign, scale int64) {
	if f.width != other.width || f.bits != other.bits {
		panic("core: fixed geometry mismatch")
	}
	if f.bits == 64 || (scale != 1 && scale != -1) {
		f.mergeFromGeneric(other, scale)
		return
	}
	f.mergeWordsSigned(other.words, scale == -1)
}

// mergeFromGeneric is the per-counter reference merge; mergeWordsSigned must
// stay byte-for-byte equivalent to it for scale ±1.
func (f *FixedSign) mergeFromGeneric(other *FixedSign, scale int64) {
	for i := 0; i < f.width; i++ {
		f.Add(i, scale*other.Value(i))
	}
}

// signExtend interprets the low bits of raw as a two's-complement value.
//
//salsa:hotpath
func signExtend(raw uint64, bits uint) int64 {
	shift := 64 - bits
	return int64(raw<<shift) >> shift
}
