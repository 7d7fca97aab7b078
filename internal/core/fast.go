package core

// Single-item fast paths. The sketches' monomorphic cores (internal/sketch)
// call these directly — no interface dispatch — and every one is the
// item-wise mirror of the AddSlots batch probe: one merge-bit word load, a
// branchless fixed-trip level probe, and a single aligned read-modify-write.
// Each fast path either leaves the row bit-for-bit as the general method
// would, or reports false without touching anything so the caller can take
// the general path (counter overflow, compact encoding, negative updates).

// fastLevel returns the merge level of base slot u with a single branchless
// merge-bit-word probe. All merge bits slot u can probe lie in its
// 2^maxLvl-slot block, and 2^maxLvl divides 64, so one word load covers all
// probes. The caller guarantees the simple encoding (s.blWords non-nil).
//
//salsa:hotpath
func (s *Salsa) fastLevel(u uint) uint {
	wbits := s.blWords[u>>6]
	lvl, t := uint(0), uint(1)
	for l := uint(0); l < s.maxLvl; l++ {
		pos := u&^(1<<(l+1)-1) + 1<<l - 1
		t &= uint(wbits>>(pos&63)) & 1
		lvl += t
	}
	return lvl
}

// AddFast adds v to the counter containing base slot i when it can do so
// with one aligned read-modify-write, reporting whether it did; on false the
// caller must fall back to Add, which leaves the counter in the identical
// state the fast path would have. The fast path declines negative updates,
// compact-encoding arrays, and adds that would overflow (and so merge).
//
//salsa:hotpath
func (s *Salsa) AddFast(i uint32, v int64) bool {
	if s.blWords == nil || v < 0 {
		return false
	}
	u := uint(i)
	lvl := s.fastLevel(u)
	size := s.s << lvl
	off := (u &^ (1<<lvl - 1)) * s.s
	w, sh := off>>6, off&63
	if size == 64 {
		s.words[w] = satAdd(s.words[w], uint64(v))
		return true
	}
	mask := (uint64(1) << size) - 1
	nv := (s.words[w]>>sh)&mask + uint64(v)
	if nv > mask {
		return false
	}
	s.words[w] = s.words[w]&^(mask<<sh) | nv<<sh
	return true
}

// ValueFast returns the value of the counter containing base slot i with the
// branchless one-word probe; ok is false (and the caller falls back to
// Value) under the compact encoding.
//
//salsa:hotpath
func (s *Salsa) ValueFast(i uint32) (v uint64, ok bool) {
	if s.blWords == nil {
		return 0, false
	}
	u := uint(i)
	lvl := s.fastLevel(u)
	size := s.s << lvl
	off := (u &^ (1<<lvl - 1)) * s.s
	w, sh := off>>6, off&63
	if size == 64 {
		return s.words[w], true
	}
	return (s.words[w] >> sh) & ((uint64(1) << size) - 1), true
}

// SetAtLeastFast raises the counter containing base slot i to at least v
// when v fits the counter's current size, reporting whether it handled the
// update; on false the caller must fall back to SetAtLeast (which merges).
// This is the conservative-update fast primitive.
//
//salsa:hotpath
func (s *Salsa) SetAtLeastFast(i uint32, v uint64) bool {
	if s.blWords == nil {
		return false
	}
	u := uint(i)
	lvl := s.fastLevel(u)
	size := s.s << lvl
	off := (u &^ (1<<lvl - 1)) * s.s
	w, sh := off>>6, off&63
	if size == 64 {
		if v > s.words[w] {
			s.words[w] = v
		}
		return true
	}
	mask := (uint64(1) << size) - 1
	if v <= (s.words[w]>>sh)&mask {
		return true
	}
	if v > mask {
		return false
	}
	s.words[w] = s.words[w]&^(mask<<sh) | v<<sh
	return true
}

// fastLevel is (*Salsa).fastLevel for the signed array; caller guarantees
// the simple encoding (c.blWords non-nil).
//
//salsa:hotpath
func (c *SalsaSign) fastLevel(u uint) uint {
	wbits := c.blWords[u>>6]
	lvl, t := uint(0), uint(1)
	for l := uint(0); l < c.maxLvl; l++ {
		pos := u&^(1<<(l+1)-1) + 1<<l - 1
		t &= uint(wbits>>(pos&63)) & 1
		lvl += t
	}
	return lvl
}

// AddSignedFast adds v (either sign) to the counter containing base slot i
// when the result still fits the counter's current size, reporting whether
// it did; on false the caller must fall back to Add, which merges. The
// Count Sketch single-item and batch fast paths share it.
//
//salsa:hotpath
func (c *SalsaSign) AddSignedFast(i uint32, v int64) bool {
	if c.blWords == nil {
		return false
	}
	u := uint(i)
	lvl := c.fastLevel(u)
	size := c.s << lvl
	off := (u &^ (1<<lvl - 1)) * c.s
	w, sh := off>>6, off&63
	if size == 64 {
		nv := satAddSigned(decodeSM(c.words[w], 64), v)
		// satAddSigned only saturates on same-sign overflow: a sum landing
		// exactly on MinInt64 (= -maxMag(64)-1) passes through, and
		// encodeSM would fold it to negative zero. Clamp as store does.
		if nv < -maxMag(64) {
			nv = -maxMag(64)
		}
		c.words[w] = encodeSM(nv, 64)
		return true
	}
	mask := (uint64(1) << size) - 1
	nv := satAddSigned(decodeSM((c.words[w]>>sh)&mask, size), v)
	if nv > maxMag(size) || nv < -maxMag(size) {
		return false
	}
	c.words[w] = c.words[w]&^(mask<<sh) | encodeSM(nv, size)<<sh
	return true
}

// ValueFast returns the value of the counter containing base slot i with the
// branchless one-word probe; ok is false under the compact encoding.
//
//salsa:hotpath
func (c *SalsaSign) ValueFast(i uint32) (v int64, ok bool) {
	if c.blWords == nil {
		return 0, false
	}
	u := uint(i)
	lvl := c.fastLevel(u)
	size := c.s << lvl
	off := (u &^ (1<<lvl - 1)) * c.s
	w, sh := off>>6, off&63
	if size == 64 {
		return decodeSM(c.words[w], 64), true
	}
	return decodeSM((c.words[w]>>sh)&((uint64(1)<<size)-1), size), true
}

// unmergedFast reports whether cell u is an unmerged single-cell counter,
// reading the link bits directly (bit j set means cells j and j+1 are one
// counter; bit width−1 is never set, so the probe of bit u is safe at the
// last cell).
//
//salsa:hotpath
func (t *Tango) unmergedFast(link []uint64, u uint) bool {
	merged := link[u>>6] >> (u & 63) & 1
	if u > 0 {
		merged |= link[(u-1)>>6] >> ((u - 1) & 63) & 1
	}
	return merged == 0
}

// AddFast adds v to the counter at cell i when the cell is unmerged and the
// sum still fits one s-bit cell, reporting whether it did; on false the
// caller must fall back to Add (merged spans, overflow, negative updates).
// Single cells are self-aligned (s ≤ 32 divides 64), so the update is one
// word read-modify-write with no span scan.
//
//salsa:hotpath
func (t *Tango) AddFast(i uint32, v int64) bool {
	u := uint(i)
	if v < 0 || !t.unmergedFast(t.link.Words(), u) {
		return false
	}
	off := u * t.s
	w, sh := off>>6, off&63
	mask := (uint64(1) << t.s) - 1
	nv := (t.words[w]>>sh)&mask + uint64(v)
	if nv > mask {
		return false
	}
	t.words[w] = t.words[w]&^(mask<<sh) | nv<<sh
	return true
}

// ValueFast returns the value of the counter at cell i when the cell is
// unmerged — the common case on all but the heaviest slots — skipping the
// span scan; ok is false when the caller must fall back to Value.
//
//salsa:hotpath
func (t *Tango) ValueFast(i uint32) (v uint64, ok bool) {
	u := uint(i)
	if !t.unmergedFast(t.link.Words(), u) {
		return 0, false
	}
	off := u * t.s
	return (t.words[off>>6] >> (off & 63)) & ((uint64(1) << t.s) - 1), true
}
