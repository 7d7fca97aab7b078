package core

import "salsa/internal/hashing"

// Monomorphic row-set operations: the whole d-row per-item hot path of a
// sketch in one call. The sketches' single-item Update/Query used to pay,
// per item, d interface dispatches plus d hash-call boundaries; the XxxEach
// functions below take the concrete row slice, hash inline (hashing.Index
// is inlinable), and run a single-word merge-bit probe with everything in
// registers — one function-call boundary per item for the whole sketch.
//
// Each probe decision is written once, in an inlinable helper: probeLevel
// and probeLevel8 (the SALSA level, branchless), firstLevel (the SALSA
// level with an early out, for the general methods) and tangoMerged (the
// Tango merged-cell check). The row-set loops here and the batch loops of
// batch.go call them and keep the counter read-modify-write inline, since
// a call per row is exactly the cost this file exists to remove. Every
// body must stay bit-for-bit equivalent to the corresponding general
// method; merged or overflowing slots fall back to it outright.

// probeLevel returns the merge level of base slot u of a simple-encoding
// row with maxLvl merge levels, given the slot's merge-bit word. Every
// merge bit slot u can probe lies in its 2^maxLvl-slot block, and 2^maxLvl
// divides 64, so one word load covers all probes. tₗ is the AND of the path
// bits through level ℓ+1 and the level is their sum: the fixed-trip loop
// has no data-dependent branch to mispredict on the mixed merged/unmerged
// slot populations that streams and batches sweep over.
//
//salsa:hotpath
func probeLevel(wbits uint64, u, maxLvl uint) uint {
	lvl, t := uint(0), uint(1)
	for l := uint(0); l < maxLvl; l++ {
		pos := u&^(1<<(l+1)-1) + 1<<l - 1
		t &= uint(wbits>>(pos&63)) & 1
		lvl += t
	}
	return lvl
}

// probeLevel8 is probeLevel for 8-bit rows (maxLvl = 3). The three probe
// bits are independent shifts of wbits, so unlike the loop there is no
// loop-carried dependency: the counter address is ready a few cycles after
// the merge-bit word arrives. Each site that runs 8-bit rows makes the
// s == 8 choice itself, because one helper wrapping both probes would
// exceed the inline budget.
//
//salsa:hotpath
func probeLevel8(wbits uint64, u uint) uint {
	t0 := uint(wbits>>((u&^1)&63)) & 1
	t1 := t0 & uint(wbits>>(((u&^3)+1)&63)) & 1
	t2 := t1 & uint(wbits>>(((u&^7)+3)&63)) & 1
	return t0 + t1 + t2
}

// firstLevel is probeLevel with an early out at the first clear merge bit.
// The general methods (Salsa.level, SalsaSign.level, bitLayout.level) keep
// it on purpose: their single-item callers see highly predictable levels,
// and there the branchless loop measured slower (BenchmarkAblationRowOps
// SalsaAdd and SalsaValue).
//
//salsa:hotpath
func firstLevel(wbits uint64, u, maxLvl uint) uint {
	lvl := uint(0)
	for lvl < maxLvl {
		pos := u&^(1<<(lvl+1)-1) + 1<<lvl - 1
		if wbits&(1<<(pos&63)) == 0 {
			break
		}
		lvl++
	}
	return lvl
}

// tangoMerged reports whether Tango cell u belongs to a merged span, reading
// the link bits directly: bit j set means cells j and j+1 are one counter,
// so cell u is merged when bit u or bit u−1 is set. Bit width−1 is never
// set, so the probe of bit u is safe at the last cell.
//
//salsa:hotpath
func tangoMerged(link []uint64, u uint) bool {
	merged := link[u>>6] >> (u & 63) & 1
	if u > 0 {
		merged |= link[(u-1)>>6] >> ((u - 1) & 63) & 1
	}
	return merged != 0
}

// SalsaUpdateEach applies the stream update ⟨x, v⟩ to every row: row i adds
// v at slot Index(x, seeds[i], mask). Equivalent to calling rows[i].Add on
// each row in order.
//
//salsa:hotpath
func SalsaUpdateEach(rows []*Salsa, seeds []uint64, mask, x uint64, v int64) {
	if v >= 0 && len(rows) > 0 && rows[0].s == 8 {
		salsaUpdateEach8(rows, seeds, mask, x, v)
		return
	}
	if v < 0 {
		for i, r := range rows {
			r.Add(int(hashing.Index(x, seeds[i], mask)), v)
		}
		return
	}
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		bl := r.blWords
		if bl == nil {
			r.Add(int(u), v) // compact encoding: general path
			continue
		}
		lvl := probeLevel(bl[u>>6], u, r.maxLvl)
		size := r.s << lvl
		off := (u &^ (1<<lvl - 1)) * r.s
		w, sh := off>>6, off&63
		if size == 64 {
			r.words[w] = satAdd(r.words[w], uint64(v))
			continue
		}
		cmask := (uint64(1) << size) - 1
		if nv := (r.words[w]>>sh)&cmask + uint64(v); nv <= cmask {
			r.words[w] = r.words[w]&^(cmask<<sh) | nv<<sh
		} else {
			r.Add(int(u), v) // overflow: merge via the general path
		}
	}
}

// salsaUpdateEach8 is SalsaUpdateEach specialized to the default 8-bit rows
// via the parallel probe; rows that are not simple-encoding 8-bit fall back
// to the general Add.
//
//salsa:hotpath
func salsaUpdateEach8(rows []*Salsa, seeds []uint64, mask, x uint64, v int64) {
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		bl := r.blWords
		if bl == nil || r.s != 8 {
			r.Add(int(u), v)
			continue
		}
		lvl := probeLevel8(bl[u>>6], u)
		off := (u &^ (1<<lvl - 1)) << 3
		w, sh := off>>6, off&63
		if lvl == 3 {
			r.words[w] = satAdd(r.words[w], uint64(v))
			continue
		}
		cmask := (uint64(1) << (8 << lvl)) - 1
		if nv := (r.words[w]>>sh)&cmask + uint64(v); nv <= cmask {
			r.words[w] = r.words[w]&^(cmask<<sh) | nv<<sh
		} else {
			r.Add(int(u), v) // overflow: merge via the general path
		}
	}
}

// SalsaQueryEach returns the CMS estimate min over rows of the counter at
// Index(x, seeds[i], mask), hashing inline — the whole point query in one
// call, with no slot scratch (conservative updates, which reuse their
// probes for the raise pass, go through SalsaConservative instead).
//
//salsa:hotpath
func SalsaQueryEach(rows []*Salsa, seeds []uint64, mask, x uint64) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		var v uint64
		if bl := r.blWords; bl == nil {
			v = r.Value(int(u))
		} else if r.s == 8 {
			lvl := probeLevel8(bl[u>>6], u)
			off := (u &^ (1<<lvl - 1)) << 3
			v = r.words[off>>6]
			if lvl != 3 {
				v = (v >> (off & 63)) & ((uint64(1) << (8 << lvl)) - 1)
			}
		} else {
			lvl := probeLevel(bl[u>>6], u, r.maxLvl)
			size := r.s << lvl
			off := (u &^ (1<<lvl - 1)) * r.s
			if size == 64 {
				v = r.words[off>>6]
			} else {
				v = (r.words[off>>6] >> (off & 63)) & ((uint64(1) << size) - 1)
			}
		}
		if v < est {
			est = v
		}
	}
	return est
}

// Probe records where one row's counter for an item lives, as the min pass
// of SalsaConservative found it: its word, the counter's shift and mask in
// that word, and the value it held.
type Probe struct {
	w, sh      uint
	cmask, val uint64
}

// SalsaConservative applies the conservative update of weight v to the
// counters at pre-hashed slots[i] and returns the item's estimate after
// it: the min over rows of the raised counters, which a Query at the same
// slots would now return. Equivalent to a min pass of Value followed by
// per-row SetAtLeast(est+v), but each row is probed once: the min pass
// keeps the counter's location in probes[i], and the raise writes
// max(value, est+v) back there. Only a counter too narrow for est+v, or a
// compact-encoding row, goes through the merging SetAtLeast.
//
//salsa:hotpath
func SalsaConservative(rows []*Salsa, slots []uint32, v uint64, probes []Probe) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		u, p := uint(slots[i]), &probes[i]
		bl := r.blWords
		if bl == nil {
			p.val = r.Value(int(u))
			est = min(est, p.val)
			continue
		}
		var lvl uint
		if r.s == 8 {
			lvl = probeLevel8(bl[u>>6], u)
		} else {
			lvl = probeLevel(bl[u>>6], u, r.maxLvl)
		}
		off := (u &^ (1<<lvl - 1)) * r.s
		p.w, p.sh = off>>6, off&63
		p.cmask = (uint64(1) << (r.s << lvl)) - 1 // all ones at 64 bits
		p.val = (r.words[p.w] >> p.sh) & p.cmask
		est = min(est, p.val)
	}
	target := satAdd(est, v)
	est = ^uint64(0)
	for i, r := range rows {
		p := &probes[i]
		nv := max(p.val, target)
		if nv > p.cmask || r.blWords == nil {
			r.SetAtLeast(int(slots[i]), target) // overflow or compact: merge via the general path
			nv = r.Value(int(slots[i]))
		} else {
			r.words[p.w] = r.words[p.w]&^(p.cmask<<p.sh) | nv<<p.sh
		}
		est = min(est, nv)
	}
	return est
}

// FixedUpdateEach applies the stream update ⟨x, v⟩ to every baseline row.
//
//salsa:hotpath
func FixedUpdateEach(rows []*Fixed, seeds []uint64, mask, x uint64, v int64) {
	if v < 0 {
		for i, r := range rows {
			r.Add(int(hashing.Index(x, seeds[i], mask)), v)
		}
		return
	}
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		off := u * r.bits
		w, sh := off>>6, off&63
		cmask := maxValue(r.bits)
		nv := satAdd((r.words[w]>>sh)&cmask, uint64(v))
		if nv > r.maxV {
			nv = r.maxV
		}
		r.words[w] = r.words[w]&^(cmask<<sh) | nv<<sh
	}
}

// FixedMinEach returns the minimum over rows of the counter at slots[i].
//
//salsa:hotpath
func FixedMinEach(rows []*Fixed, slots []uint32) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		off := uint(slots[i]) * r.bits
		if v := (r.words[off>>6] >> (off & 63)) & maxValue(r.bits); v < est {
			est = v
		}
	}
	return est
}

// FixedQueryEach returns the CMS estimate over baseline rows, hashing
// inline with no slot scratch.
//
//salsa:hotpath
func FixedQueryEach(rows []*Fixed, seeds []uint64, mask, x uint64) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		off := uint(hashing.Index(x, seeds[i], mask)) * r.bits
		if v := (r.words[off>>6] >> (off & 63)) & maxValue(r.bits); v < est {
			est = v
		}
	}
	return est
}

// FixedRaiseEach raises row i's counter at slots[i] to at least target
// (saturating at the counter maximum) and returns the minimum over rows of
// the raised counters.
//
//salsa:hotpath
func FixedRaiseEach(rows []*Fixed, slots []uint32, target uint64) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		off := uint(slots[i]) * r.bits
		w, sh := off>>6, off&63
		cmask := maxValue(r.bits)
		t := target
		if t > r.maxV {
			t = r.maxV
		}
		v := (r.words[w] >> sh) & cmask
		if t > v {
			r.words[w] = r.words[w]&^(cmask<<sh) | t<<sh
			v = t
		}
		if v < est {
			est = v
		}
	}
	return est
}

// TangoUpdateEach applies the stream update ⟨x, v⟩ to every Tango row:
// unmerged non-overflowing cells inline, everything else via the general
// Add.
//
//salsa:hotpath
func TangoUpdateEach(rows []*Tango, seeds []uint64, mask, x uint64, v int64) {
	if v < 0 {
		for i, r := range rows {
			r.Add(int(hashing.Index(x, seeds[i], mask)), v)
		}
		return
	}
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		if tangoMerged(r.link.Words(), u) {
			r.Add(int(u), v)
			continue
		}
		off := u * r.s
		w, sh := off>>6, off&63
		cmask := (uint64(1) << r.s) - 1
		if nv := (r.words[w]>>sh)&cmask + uint64(v); nv <= cmask {
			r.words[w] = r.words[w]&^(cmask<<sh) | nv<<sh
		} else {
			r.Add(int(u), v)
		}
	}
}

// TangoMinEach returns the minimum over rows of the counter at slots[i].
//
//salsa:hotpath
func TangoMinEach(rows []*Tango, slots []uint32) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		u := uint(slots[i])
		var v uint64
		if !tangoMerged(r.link.Words(), u) {
			off := u * r.s
			v = (r.words[off>>6] >> (off & 63)) & ((uint64(1) << r.s) - 1)
		} else {
			v = r.Value(int(u))
		}
		if v < est {
			est = v
		}
	}
	return est
}

// TangoQueryEach returns the CMS estimate over Tango rows, hashing inline
// with no slot scratch.
//
//salsa:hotpath
func TangoQueryEach(rows []*Tango, seeds []uint64, mask, x uint64) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		u := uint(hashing.Index(x, seeds[i], mask))
		var v uint64
		if !tangoMerged(r.link.Words(), u) {
			off := u * r.s
			v = (r.words[off>>6] >> (off & 63)) & ((uint64(1) << r.s) - 1)
		} else {
			v = r.Value(int(u))
		}
		if v < est {
			est = v
		}
	}
	return est
}

// TangoRaiseEach raises row i's counter at slots[i] to at least target —
// unmerged cells inline, merged spans and overflows via the general
// SetAtLeast — and returns the minimum over rows of the raised counters.
//
//salsa:hotpath
func TangoRaiseEach(rows []*Tango, slots []uint32, target uint64) uint64 {
	est := ^uint64(0)
	for i, r := range rows {
		u := uint(slots[i])
		off := u * r.s
		w, sh := off>>6, off&63
		cmask := (uint64(1) << r.s) - 1
		var v uint64
		switch v = (r.words[w] >> sh) & cmask; {
		case tangoMerged(r.link.Words(), u) || target > cmask:
			r.SetAtLeast(int(u), target)
			v = r.Value(int(u))
		case target > v:
			r.words[w] = r.words[w]&^(cmask<<sh) | target<<sh
			v = target
		}
		if v < est {
			est = v
		}
	}
	return est
}

// SalsaMinSlots folds the counter values at slots[j] into out[j]:
// out[j] = min(out[j], value at slots[j]) — the QueryBatch inner loop, one
// call per row per chunk with the probe in registers.
//
//salsa:hotpath
func SalsaMinSlots(r *Salsa, slots []uint32, out []uint64) {
	bl := r.blWords
	if bl == nil {
		for j, slot := range slots {
			if v := r.Value(int(slot)); v < out[j] {
				out[j] = v
			}
		}
		return
	}
	if r.s == 8 {
		words := r.words
		for j, slot := range slots {
			u := uint(slot)
			lvl := probeLevel8(bl[u>>6], u)
			off := (u &^ (1<<lvl - 1)) << 3
			v := words[off>>6]
			if lvl != 3 {
				v = (v >> (off & 63)) & ((uint64(1) << (8 << lvl)) - 1)
			}
			if v < out[j] {
				out[j] = v
			}
		}
		return
	}
	words, sb, maxLvl := r.words, r.s, r.maxLvl
	for j, slot := range slots {
		u := uint(slot)
		lvl := probeLevel(bl[u>>6], u, maxLvl)
		size := sb << lvl
		off := (u &^ (1<<lvl - 1)) * sb
		w, sh := off>>6, off&63
		v := words[w]
		if size != 64 {
			v = (v >> sh) & ((uint64(1) << size) - 1)
		}
		if v < out[j] {
			out[j] = v
		}
	}
}

// FixedMinSlots folds the counter values at slots[j] into out[j].
//
//salsa:hotpath
func FixedMinSlots(r *Fixed, slots []uint32, out []uint64) {
	words, bits := r.words, r.bits
	cmask := maxValue(bits)
	for j, slot := range slots {
		off := uint(slot) * bits
		if v := (words[off>>6] >> (off & 63)) & cmask; v < out[j] {
			out[j] = v
		}
	}
}

// TangoMinSlots folds the counter values at slots[j] into out[j].
//
//salsa:hotpath
func TangoMinSlots(r *Tango, slots []uint32, out []uint64) {
	words, link, sb := r.words, r.link.Words(), r.s
	cmask := (uint64(1) << sb) - 1
	for j, slot := range slots {
		u := uint(slot)
		var v uint64
		if !tangoMerged(link, u) {
			off := u * sb
			v = (words[off>>6] >> (off & 63)) & cmask
		} else {
			v = r.Value(int(u))
		}
		if v < out[j] {
			out[j] = v
		}
	}
}

// SalsaSignReadSlots writes signs[j]·value(slots[j]) into out[j*stride+col]
// — the Count Sketch QueryBatch gather into its strided scratch.
//
//salsa:hotpath
func SalsaSignReadSlots(r *SalsaSign, slots []uint32, signs []int8, out []int64, stride, col int) {
	bl := r.blWords
	if bl == nil {
		for j, slot := range slots {
			out[j*stride+col] = int64(signs[j]) * r.Value(int(slot))
		}
		return
	}
	words, sb, maxLvl := r.words, r.s, r.maxLvl
	for j, slot := range slots {
		u := uint(slot)
		var lvl uint
		if sb == 8 {
			lvl = probeLevel8(bl[u>>6], u)
		} else {
			lvl = probeLevel(bl[u>>6], u, maxLvl)
		}
		size := sb << lvl
		off := (u &^ (1<<lvl - 1)) * sb
		w, sh := off>>6, off&63
		var v int64
		if size == 64 {
			v = decodeSM(words[w], 64)
		} else {
			v = decodeSM((words[w]>>sh)&((uint64(1)<<size)-1), size)
		}
		out[j*stride+col] = int64(signs[j]) * v
	}
}

// FixedSignReadSlots writes signs[j]·value(slots[j]) into out[j*stride+col].
//
//salsa:hotpath
func FixedSignReadSlots(r *FixedSign, slots []uint32, signs []int8, out []int64, stride, col int) {
	words, bits := r.words, r.bits
	cmask := maxValue(bits)
	shift := 64 - bits
	for j, slot := range slots {
		off := uint(slot) * bits
		raw := (words[off>>6] >> (off & 63)) & cmask
		out[j*stride+col] = (int64(raw<<shift) >> shift) * int64(signs[j])
	}
}

// SalsaSignUpdateEach applies the Count Sketch update ⟨x, v⟩ to every
// sign-magnitude row: row i adds v·gᵢ(x) at its slot, inline while the
// magnitude fits, via the general Add (which merges) otherwise.
//
//salsa:hotpath
func SalsaSignUpdateEach(rows []*SalsaSign, idxSeeds, signSeeds []uint64, mask, x uint64, v int64) {
	for i, r := range rows {
		u := uint(hashing.Index(x, idxSeeds[i], mask))
		sv := v * hashing.Sign(x, signSeeds[i])
		bl := r.blWords
		if bl == nil {
			r.Add(int(u), sv)
			continue
		}
		var lvl uint
		if r.s == 8 {
			lvl = probeLevel8(bl[u>>6], u)
		} else {
			lvl = probeLevel(bl[u>>6], u, r.maxLvl)
		}
		size := r.s << lvl
		off := (u &^ (1<<lvl - 1)) * r.s
		w, sh := off>>6, off&63
		if size == 64 {
			nv := satAddSigned(decodeSM(r.words[w], 64), sv)
			// A sum landing exactly on MinInt64 passes satAddSigned
			// unsaturated and would encode as negative zero; clamp as
			// store does.
			if nv < -maxMag(64) {
				nv = -maxMag(64)
			}
			r.words[w] = encodeSM(nv, 64)
			continue
		}
		cmask := (uint64(1) << size) - 1
		nv := satAddSigned(decodeSM((r.words[w]>>sh)&cmask, size), sv)
		if nv <= maxMag(size) && nv >= -maxMag(size) {
			r.words[w] = r.words[w]&^(cmask<<sh) | encodeSM(nv, size)<<sh
		} else {
			r.Add(int(u), sv) // overflow: merge via the general path
		}
	}
}

// SalsaSignReadEach writes row i's signed reading gᵢ(x)·C[i, hᵢ(x)] into
// out[i] — the Count Sketch query gather; the caller takes the median.
//
//salsa:hotpath
func SalsaSignReadEach(rows []*SalsaSign, idxSeeds, signSeeds []uint64, mask, x uint64, out []int64) {
	for i, r := range rows {
		u := uint(hashing.Index(x, idxSeeds[i], mask))
		var v int64
		if bl := r.blWords; bl != nil {
			var lvl uint
			if r.s == 8 {
				lvl = probeLevel8(bl[u>>6], u)
			} else {
				lvl = probeLevel(bl[u>>6], u, r.maxLvl)
			}
			size := r.s << lvl
			off := (u &^ (1<<lvl - 1)) * r.s
			w, sh := off>>6, off&63
			if size == 64 {
				v = decodeSM(r.words[w], 64)
			} else {
				v = decodeSM((r.words[w]>>sh)&((uint64(1)<<size)-1), size)
			}
		} else {
			v = r.Value(int(u))
		}
		out[i] = v * hashing.Sign(x, signSeeds[i])
	}
}

// FixedSignUpdateEach applies the Count Sketch update ⟨x, v⟩ to every
// baseline two's-complement row.
//
//salsa:hotpath
func FixedSignUpdateEach(rows []*FixedSign, idxSeeds, signSeeds []uint64, mask, x uint64, v int64) {
	for i, r := range rows {
		u := uint(hashing.Index(x, idxSeeds[i], mask))
		sv := v * hashing.Sign(x, signSeeds[i])
		off := u * r.bits
		w, sh := off>>6, off&63
		cmask := maxValue(r.bits)
		shift := 64 - r.bits
		cur := int64((r.words[w]>>sh&cmask)<<shift) >> shift
		nv := satAddSigned(cur, sv)
		if nv > r.maxV {
			nv = r.maxV
		} else if nv < -r.maxV {
			nv = -r.maxV
		}
		r.words[w] = r.words[w]&^(cmask<<sh) | (uint64(nv)&cmask)<<sh
	}
}

// FixedSignReadEach writes row i's signed reading into out[i].
//
//salsa:hotpath
func FixedSignReadEach(rows []*FixedSign, idxSeeds, signSeeds []uint64, mask, x uint64, out []int64) {
	for i, r := range rows {
		u := uint(hashing.Index(x, idxSeeds[i], mask))
		off := u * r.bits
		shift := 64 - r.bits
		raw := (r.words[off>>6] >> (off & 63)) & maxValue(r.bits)
		out[i] = (int64(raw<<shift) >> shift) * hashing.Sign(x, signSeeds[i])
	}
}
