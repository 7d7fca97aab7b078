package core

import "math/bits"

// Word-parallel (SWAR) merge kernels. MergeFrom/SubtractFrom are the backbone
// of the sliding-window rotation, the sharded snapshot paths and salsad's
// folds and delta cuts, and the per-counter loops in fixed.go/signmag.go/
// salsa.go pay a bit-extraction and (for SALSA) a layout probe per counter.
// The kernels below instead combine one full 64-bit word of counters per
// step — 64/bits lanes at a time. Sum-merge SALSA words whose two layouts
// differ are first widened to the union layout, and counters that overflow
// join their siblings inside the word. Only the rare words where a lane
// saturates or clamps, where a same-layout SALSA counter overflows, where a
// 64-bit SALSA counter saturates, or where max-merge layouts differ drop to
// the per-counter path, which replays its semantics exactly. A kernel
// merge is byte-for-byte identical to the scalar merge it replaces (the
// equivalence is pinned by TestSWARKernelEquivalence and FuzzMergeKernels).
//
// Lane layout: every Fixed/FixedSign/Salsa/SalsaSign counter is self-aligned
// with a power-of-two bit size ≤ 64, so counters never straddle words and a
// word is an exact sequence of lanes. The carry/borrow telltale of a packed
// add/sub is the classic bitwise carry-out recurrence; a carry (borrow) out
// of a lane's top bit is what distinguishes "this word is an exact
// lane-wise result" from "some lane needs the slow path".

// laneTopMask returns the mask with the top bit of every k-bit lane set
// (k a power of two ≤ 32; 64-bit lanes are handled word-at-a-time).
func laneTopMask(k uint) uint64 {
	m := uint64(1) << (k - 1)
	for sh := k; sh < 64; sh <<= 1 {
		m |= m << sh
	}
	return m
}

// carryOut returns the per-bit carry-out vector of the addition a+b=s.
func carryOut(a, b, s uint64) uint64 { return (a & b) | ((a | b) &^ s) }

// borrowOut returns the per-bit borrow-out vector of the subtraction a−b=d.
func borrowOut(a, b, d uint64) uint64 { return (^a & b) | ((^a | b) & d) }

// --- Fixed ------------------------------------------------------------------

// mergeWords adds the counter words ow into f lane-wise, saturating at the
// counter maximum. A word whose lane sums all fit is written with a single
// 64-bit add (no carry escapes any lane top); a word with at least one
// saturating lane is recomputed lane-by-lane.
func (f *Fixed) mergeWords(ow []uint64) {
	k := f.bits
	if k == 64 {
		for i, b := range ow {
			f.words[i] = satAdd(f.words[i], b)
		}
		return
	}
	hi := laneTopMask(k)
	mask := f.maxV
	for i, b := range ow {
		if b == 0 {
			continue
		}
		a := f.words[i]
		s := a + b
		if carryOut(a, b, s)&hi == 0 {
			f.words[i] = s
			continue
		}
		var out uint64
		for off := uint(0); off < 64; off += k {
			nv := ((a >> off) & mask) + ((b >> off) & mask)
			if nv > mask {
				nv = mask
			}
			out |= nv << off
		}
		f.words[i] = out
	}
}

// subtractWords subtracts the counter words ow from f lane-wise, clamping at
// zero. A word with no lane borrow is written with a single 64-bit subtract;
// a word with at least one clamping lane is recomputed lane-by-lane.
func (f *Fixed) subtractWords(ow []uint64) {
	k := f.bits
	if k == 64 {
		for i, b := range ow {
			if cur := f.words[i]; b >= cur {
				f.words[i] = 0
			} else {
				f.words[i] = cur - b
			}
		}
		return
	}
	hi := laneTopMask(k)
	mask := f.maxV
	for i, b := range ow {
		if b == 0 {
			continue
		}
		a := f.words[i]
		d := a - b
		if borrowOut(a, b, d)&hi == 0 {
			f.words[i] = d
			continue
		}
		var out uint64
		for off := uint(0); off < 64; off += k {
			av, bv := (a>>off)&mask, (b>>off)&mask
			if bv < av {
				out |= (av - bv) << off
			}
		}
		f.words[i] = out
	}
}

// --- FixedSign --------------------------------------------------------------

// mergeWordsSigned adds (sub false) or subtracts (sub true) the two's-
// complement counter words ow into f lane-wise, saturating at ±maxV. The
// packed add/sub uses the standard high-bit-split SWAR forms, which keep
// carries and borrows from crossing lane boundaries; a lane is sent to the
// slow path when it overflows signed arithmetic or lands on the
// unrepresentable −2^(k−1) (the rows saturate at ±(2^(k−1)−1)).
func (f *FixedSign) mergeWordsSigned(ow []uint64, sub bool) {
	k := f.bits
	hi := laneTopMask(k)
	mask := maxValue(k)
	for i, b := range ow {
		if b == 0 {
			continue
		}
		a := f.words[i]
		var s, ovf uint64
		if sub {
			s = ((a | hi) - (b &^ hi)) ^ ((a ^ ^b) & hi)
			ovf = (a ^ b) & (a ^ s) & hi
		} else {
			s = ((a &^ hi) + (b &^ hi)) ^ ((a ^ b) & hi)
			ovf = ^(a ^ b) & (a ^ s) & hi
		}
		// Lanes equal to −2^(k−1): sign bit set, all magnitude bits zero.
		// hi − lows stays inside each lane because hi ≥ lows lane-wise.
		isMin := (hi - (s &^ hi)) & s & hi
		if ovf|isMin == 0 {
			f.words[i] = s
			continue
		}
		var out uint64
		sc := int64(1)
		if sub {
			sc = -1
		}
		for off := uint(0); off < 64; off += k {
			av := signExtend((a>>off)&mask, k)
			bv := signExtend((b>>off)&mask, k)
			nv := av + sc*bv // k ≤ 32: cannot overflow int64
			if nv > f.maxV {
				nv = f.maxV
			} else if nv < -f.maxV {
				nv = -f.maxV
			}
			out |= (uint64(nv) & mask) << off
		}
		f.words[i] = out
	}
}

// --- SALSA ------------------------------------------------------------------

// laneBitsMask returns the mask of the low `lanes` bits (lanes ≤ 64).
func laneBitsMask(lanes uint) uint64 {
	if lanes == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << lanes) - 1
}

// pendHitsCounterTop reports whether any set bit of pend — a mask of lane
// top bits flagged by a carry, borrow, or sign telltale — falls on a lane
// whose merge bit is clear, i.e. on a counter's own top (sign) bit rather
// than an intra-counter boundary. Such a hit means a whole counter
// overflowed, clamped, or carries a sign, and the word needs the
// per-counter path.
func pendHitsCounterTop(pend, mw uint64, s uint) bool {
	for t := pend; t != 0; t &= t - 1 {
		if mw>>(uint(bits.TrailingZeros64(t))/s)&1 == 0 {
			return true
		}
	}
	return false
}

// laneGeom holds, for one base counter size s, the masks the SALSA word
// kernels use. A counter word's L = 64/s merge bits form its lane layout
// (bit q is lane q's merge bit). The kernels also spread a lane layout over
// the word's own bits, lane q's merge bit moving to bit q·s, the lane's
// lowest bit, where the blocks of every level line up with the counter
// fields they join.
type laneGeom struct {
	s, logS, lanes, maxLvl uint
	lmask                  uint64      // the low L bits
	hi                     uint64      // every lane's top bit
	levels                 [7]uint64   // levels[ℓ]: where a merge-bit word holds level-ℓ bits
	spreadLevels           [7]uint64   // levels[ℓ] of one counter word's lanes, spread
	spreadTab              [256]uint64 // spreadTab[x]: lanes 0–7 of x, spread
}

// laneGeoms is indexed by log2(s).
var laneGeoms = func() (gs [6]laneGeom) {
	for i := range gs {
		g := &gs[i]
		g.s, g.logS = 1<<i, uint(i)
		g.lanes = 64 / g.s
		g.maxLvl = uint(bits.TrailingZeros(g.lanes))
		g.lmask = laneBitsMask(g.lanes)
		g.hi = laneTopMask(g.s)
		for x := range g.spreadTab {
			for q := uint(0); q < 8 && q < g.lanes; q++ {
				g.spreadTab[x] |= uint64(x) >> q & 1 << (q * g.s)
			}
		}
		for l := uint(1); l <= g.maxLvl; l++ {
			// Slot b+2^(ℓ−1)−1 of every 2^ℓ-aligned block b: the top bit of
			// each 2^ℓ-bit lane, moved down half a lane.
			g.levels[l] = laneTopMask(1<<l) >> (1 << (l - 1))
			g.spreadLevels[l] = g.spreadLanes(g.levels[l] & g.lmask)
		}
	}
	return gs
}()

func laneGeomFor(s uint) *laneGeom { return &laneGeoms[bits.TrailingZeros(s)] }

// spreadLanes moves lane bit q of the lane layout x to bit q·s.
func (g *laneGeom) spreadLanes(x uint64) uint64 {
	if g.s == 1 {
		return x
	}
	r := g.spreadTab[x&0xff]
	for k := uint(8); k < g.lanes; k += 8 {
		r |= g.spreadTab[x>>k&0xff] << (k << g.logS & 63)
	}
	return r
}

// tops returns the top bit of every counter of the spread layout su: the
// lane tops whose merge bit is clear.
func (g *laneGeom) tops(su uint64) uint64 { return g.hi &^ (su << (g.s - 1)) }

// widen re-encodes counter word x from spread layout from to the spread
// layout to ⊇ from. Level by level, every block that to joins and from does
// not gets the sum of its two half-fields in the doubled field; each half
// is below 2^h, so the sum fits and widening never overflows.
func (g *laneGeom) widen(x, from, to uint64) uint64 {
	join := to &^ from
	for l := uint(1); l <= g.maxLvl && join != 0; l++ {
		j := join & g.spreadLevels[l]
		if j == 0 {
			continue
		}
		join &^= j
		h := g.s << (l - 1) & 63
		st := j >> (h - g.s) // each joined block's lowest bit
		lo := st<<h - st
		x = x&^(lo|lo<<h) | (x&lo + x>>h&lo)
	}
	return x
}

// counterLanes returns the lane count of the counter whose top lane is q in
// the lane layout u: one more than the run of set merge bits below q.
func counterLanes(u uint64, q uint) uint {
	return 1 + uint(bits.LeadingZeros64(^(u << (64 - q))))
}

// mergeBitsFor returns the L=64/s merge bits guarding counter word w: bit q
// set means base slots wL+q and wL+q+1 belong to the same counter, so a
// carry out of lane q's top bit is an intra-counter carry (harmless),
// while a carry out of a lane with a clear bit overflows a whole counter.
// Counters are at most 64 bits, so the L bits never straddle a merge word
// and the last lane's bit is always clear (decoders reject payloads that
// break this).
func mergeBitsFor(blWords []uint64, w int, lanes uint) uint64 {
	off := uint(w) * lanes
	return blWords[off>>6] >> (off & 63)
}

// setMergeBits ORs the lane layout u into the merge bits of counter word w.
func setMergeBits(blWords []uint64, w int, lanes uint, u uint64) {
	off := uint(w) * lanes
	blWords[off>>6] |= u << (off & 63)
}

// mergeFast is the word-parallel MergeFrom for two simple-encoding rows.
// Counters never span words, and merges and level-raises are word-local, so
// the rows combine one counter word at a time. A word whose L merge bits
// match on both sides combines with one 64-bit add, with the merge bits
// distinguishing harmless intra-counter carries from genuine counter
// overflow; an overflowing word replays per-counter through raiseTo/store
// (mergeWordUnify), so values, layout and the raise odometer all match the
// scalar path. A sum-merge word whose layouts differ is widened to the
// union layout and summed by mergeWordWiden, which reaches the scalar
// path's values and layout (its odometer counts the joined blocks, which
// may group raises differently). Max-merge words with differing layouts,
// and words where a 64-bit counter saturates, replay per-counter.
// Returns false when either row uses the compact encoding.
func (c *Salsa) mergeFast(other *Salsa) bool {
	if c.blWords == nil || other.blWords == nil {
		return false
	}
	g := laneGeomFor(c.s)
	lanes := g.lanes
	sum := c.policy == SumMerge
	for w, b := range other.words {
		mw := mergeBitsFor(c.blWords, w, lanes) & g.lmask
		if ow := mergeBitsFor(other.blWords, w, lanes) & g.lmask; mw != ow {
			switch {
			case !sum:
				c.mergeWordUnify(other, w, lanes)
			case b == 0 && ow&^mw == 0:
				// c's layout already covers a zero word.
			case !c.mergeWordWiden(g, w, b, mw, ow):
				c.mergeWordUnify(other, w, lanes)
			}
			continue
		}
		if b == 0 {
			continue
		}
		a := c.words[w]
		if !sum {
			// Max-merge has no word-parallel combine over variable-size
			// counters; handle the trivial words and replay the rest.
			if a == b {
				continue
			}
			if a == 0 {
				c.words[w] = b
				continue
			}
			c.mergeWordUnify(other, w, lanes)
			continue
		}
		s := a + b
		if pend := carryOut(a, b, s) & g.hi; pend != 0 && pendHitsCounterTop(pend, mw, c.s) {
			c.mergeWordUnify(other, w, lanes)
			continue
		}
		c.words[w] = s
	}
	return true
}

// mergeWordWiden sums other's counter word b into c's word w when their
// lane layouts mw and ow differ. Both words are widened to the union
// u = mw|ow (a valid layout: each of its counters is the larger of the two
// covering that slot) and added with the carry split at u's counter tops,
// which reads every counter's overflow exactly. Each counter that carries
// out joins its sibling block — extents are read from the layout the pass
// started with, so a counter whose sibling also overflowed joins only
// once — and the pass repeats on the widened operands until every counter
// holds its sum. With non-negative values every join is forced, so the
// loop ends at the least layout whose counters hold their sums: the one
// store's cascade reaches. The odometer adds the blocks joined. Returns
// false, leaving c untouched, when a 64-bit counter would saturate.
func (c *Salsa) mergeWordWiden(g *laneGeom, w int, b, mw, ow uint64) bool {
	u := mw | ow
	sm, so := g.spreadLanes(mw), g.spreadLanes(ow)
	su := sm | so
	a := g.widen(c.words[w], sm, su)
	b = g.widen(b, so, su)
	for {
		top := g.tops(su)
		low := a&^top + b&^top
		carry := (a&b | low&(a^b)) & top
		if carry == 0 {
			c.words[w] = low ^ (a^b)&top
			break
		}
		nu := u
		for t := carry; t != 0; t &= t - 1 {
			q := uint(bits.TrailingZeros64(t)) >> g.logS
			n := counterLanes(u, q)
			if n == g.lanes {
				return false
			}
			n <<= 1 // the parent block: set all its interior merge bits
			nu |= laneBitsMask(n-1) << ((q + 1 - n/2) &^ (n - 1))
		}
		snu := g.spreadLanes(nu)
		a, b = g.widen(a, su, snu), g.widen(b, su, snu)
		u, su = nu, snu
	}
	setMergeBits(c.blWords, w, g.lanes, u)
	c.merges += uint64(bits.OnesCount64(u) - bits.OnesCount64(mw))
	return true
}

// mergeWordUnify replays the scalar merge for the counters of word w:
// raise c's counters to cover other's levels, then fold the values in with
// the policy's semantics, letting store cascade further raises on overflow.
// All of it stays inside word w (counters are at most 64 bits), so the
// per-word interleaving reaches the same fixpoint — values and layout — as
// the scalar path's global raise-then-add passes.
func (c *Salsa) mergeWordUnify(other *Salsa, w int, lanes uint) {
	base := w * int(lanes)
	for i, end := base, base+int(lanes); i < end; {
		lvl := other.level(i)
		val := readAligned(other.words, uint(i)*other.s, other.s<<lvl)
		if c.level(i) < lvl {
			c.raiseTo(i, lvl)
		}
		myLvl := c.level(i)
		myStart := i &^ (1<<myLvl - 1)
		cur := readAligned(c.words, uint(myStart)*c.s, c.s<<myLvl)
		if c.policy == SumMerge {
			c.store(myStart, myLvl, satAdd(cur, val))
		} else if val > cur {
			c.store(myStart, myLvl, val)
		}
		i += 1 << lvl
	}
}

// subtractFast is the word-parallel SubtractFrom for two simple-encoding
// rows. A word whose layouts match and whose counters do not clamp is one
// 64-bit subtract, with the merge bits separating intra-counter borrows
// from counter clamps; every other word goes through subtractWordWiden.
func (c *Salsa) subtractFast(other *Salsa) bool {
	if c.blWords == nil || other.blWords == nil {
		return false
	}
	g := laneGeomFor(c.s)
	lanes := g.lanes
	for w, b := range other.words {
		mw := mergeBitsFor(c.blWords, w, lanes) & g.lmask
		ow := mergeBitsFor(other.blWords, w, lanes) & g.lmask
		if b == 0 && ow&^mw == 0 {
			continue
		}
		if mw == ow {
			a := c.words[w]
			d := a - b
			if pend := borrowOut(a, b, d) & g.hi; pend == 0 || !pendHitsCounterTop(pend, mw, c.s) {
				c.words[w] = d
				continue
			}
		}
		c.subtractWordWiden(g, w, b, mw, ow)
	}
	return true
}

// subtractWordWiden subtracts other's counter word b from c's word w over
// the union layout u = mw|ow: both words are widened to u and subtracted
// with the borrow split at u's counter tops. A borrow out of a counter top
// means the counter would go negative, and it is clamped to zero; a borrow
// at a lane top inside a counter is ordinary. The scalar path raises c to
// u and clamps per counter, and because other's values are non-negative,
// clamping once against their sum is the same as clamping after each. The
// odometer adds the blocks joined.
func (c *Salsa) subtractWordWiden(g *laneGeom, w int, b, mw, ow uint64) {
	u := mw | ow
	sm, so := g.spreadLanes(mw), g.spreadLanes(ow)
	su := sm | so
	a := g.widen(c.words[w], sm, su)
	b = g.widen(b, so, su)
	top := g.tops(su)
	low := (a | top) - b&^top
	d := low ^ (a^^b)&top
	for t := (^a&b | ^(a^b)&^low) & top; t != 0; t &= t - 1 {
		q := uint(bits.TrailingZeros64(t)) >> g.logS
		n := counterLanes(u, q)
		d &^= maxValue(n<<g.logS) << ((q + 1 - n) << g.logS)
	}
	c.words[w] = d
	setMergeBits(c.blWords, w, g.lanes, u)
	c.merges += uint64(bits.OnesCount64(u) - bits.OnesCount64(mw))
}

// --- SalsaSign --------------------------------------------------------------

// mergeFastSigned is the word-parallel sum for two sign-magnitude
// simple-encoding rows, gated per counter word like (*Salsa).mergeFast.
// When a word's layouts match and every counter in it is non-negative in
// both rows, values coincide with their magnitudes, a plain 64-bit add is
// the exact counter-wise sum, and the magnitudes (each below 2^(size−1))
// cannot carry past a counter's sign bit. The telltale is any counter-top
// (sign) bit set in a, b, or the sum: a set source bit means a negative
// counter, a set sum bit a magnitude overflow that must merge-raise — both
// replay per-counter, as do words with mismatched layouts. Intra-counter
// lane tops are plain data bits and are ignored via the merge bits.
func (c *SalsaSign) mergeFastSigned(other *SalsaSign) bool {
	if c.blWords == nil || other.blWords == nil {
		return false
	}
	lanes := 64 / c.s
	lmask := laneBitsMask(lanes)
	hi := laneTopMask(c.s)
	for w, b := range other.words {
		mw := mergeBitsFor(c.blWords, w, lanes) & lmask
		if mw != mergeBitsFor(other.blWords, w, lanes)&lmask {
			c.mergeWordUnify(other, w, lanes, 1)
			continue
		}
		if b == 0 {
			continue
		}
		a := c.words[w]
		s := a + b
		if pend := (a | b | s) & hi; pend != 0 && pendHitsCounterTop(pend, mw, c.s) {
			c.mergeWordSameLayout(other, w, lanes, mw, 1)
			continue
		}
		c.words[w] = s
	}
	return true
}

// subtractFastSigned is mergeFastSigned for scale −1: on layout-matching
// words whose counters are non-negative on both sides and subtract without
// borrowing past any counter's top data bit, one 64-bit subtract is the
// exact counter-wise difference (and stays non-negative, so the encoding
// remains valid). Negative inputs, would-be-negative results, and
// mismatched words replay per-counter, where Add handles sign-magnitude
// re-encoding.
func (c *SalsaSign) subtractFastSigned(other *SalsaSign) bool {
	if c.blWords == nil || other.blWords == nil {
		return false
	}
	lanes := 64 / c.s
	lmask := laneBitsMask(lanes)
	hi := laneTopMask(c.s)
	for w, b := range other.words {
		mw := mergeBitsFor(c.blWords, w, lanes) & lmask
		if mw != mergeBitsFor(other.blWords, w, lanes)&lmask {
			c.mergeWordUnify(other, w, lanes, -1)
			continue
		}
		if b == 0 {
			continue
		}
		a := c.words[w]
		d := a - b
		if pend := (a | b | borrowOut(a, b, d)) & hi; pend != 0 && pendHitsCounterTop(pend, mw, c.s) {
			c.mergeWordSameLayout(other, w, lanes, mw, -1)
			continue
		}
		c.words[w] = d
	}
	return true
}

// mergeWordSameLayout folds word w counter-wise when both rows' layouts
// match on it, reading counter extents straight off the merge-bit word
// (a counter of 2^ℓ lanes shows as a run of 2^ℓ−1 set bits), so mixed-sign
// words — the norm for Count Sketch rows — skip the per-slot level probes.
// A magnitude overflow raises through store and invalidates the cached
// extents, so the rest of the word falls back to the level-probing walk.
func (c *SalsaSign) mergeWordSameLayout(other *SalsaSign, w int, lanes uint, mw uint64, scale int64) {
	base := w * int(lanes)
	for q := uint(0); q < lanes; {
		n := uint(bits.TrailingZeros64(^(mw >> q))) + 1
		size := c.s * n
		off := (uint(base) + q) * c.s
		av := decodeSM(readAligned(c.words, off, size), size)
		bv := decodeSM(readAligned(other.words, off, size), size)
		nv := satAddSigned(av, scale*bv)
		if nv >= -maxMag(size) && nv <= maxMag(size) {
			writeAligned(c.words, off, size, encodeSM(nv, size))
		} else {
			// Overflow: store raises (changing c's layout within this
			// word); replay the remaining lanes with live level probes.
			c.store(base+int(q), uint(bits.TrailingZeros64(uint64(n))), nv)
			c.mergeLanesUnify(other, base+int(q+n), base+int(lanes), scale)
			return
		}
		q += n
	}
}

// mergeWordUnify replays the scalar signed merge for the counters of word
// w: raise to cover other's levels, then fold scale times the values (Add
// recomputes the level per counter, mirroring mergeCounters; raises stay
// inside the word).
func (c *SalsaSign) mergeWordUnify(other *SalsaSign, w int, lanes uint, scale int64) {
	base := w * int(lanes)
	c.mergeLanesUnify(other, base, base+int(lanes), scale)
}

// mergeLanesUnify is mergeWordUnify over the base-slot range [i, end).
func (c *SalsaSign) mergeLanesUnify(other *SalsaSign, i, end int, scale int64) {
	for i < end {
		lvl := other.level(i)
		size := other.s << lvl
		val := decodeSM(readAligned(other.words, uint(i)*other.s, size), size)
		if c.level(i) < lvl {
			c.raiseTo(i, lvl)
		}
		c.Add(i, scale*val)
		i += 1 << lvl
	}
}
