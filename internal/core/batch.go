package core

// Batch slot updates. The sketches address rows through interfaces, so a
// per-item Add costs an interface dispatch per row; the AddSlots variants
// take a whole batch of pre-hashed slots (row widths fit easily in uint32)
// and amortize that dispatch — and let each row type keep its hot fields in
// registers across the batch.

// AddSlots adds v to every addressed counter, in slot order.
//
//salsa:hotpath
func (f *Fixed) AddSlots(slots []uint32, v int64) {
	words, bits, maxV := f.words, f.bits, f.maxV
	if v >= 0 {
		d := uint64(v)
		for _, i := range slots {
			cur := readAligned(words, uint(i)*bits, bits)
			nv := satAdd(cur, d)
			if nv > maxV {
				nv = maxV
			}
			writeAligned(words, uint(i)*bits, bits, nv)
		}
		return
	}
	for _, i := range slots {
		f.Add(int(i), v)
	}
}

// AddSlots adds v to every addressed counter, in slot order. Order matters
// for SALSA rows: counter merges fire exactly as they would under the same
// sequence of single Adds, so batch and sequential ingestion agree
// bit-for-bit. Unmerged counters that do not overflow — the common case on
// all but the heaviest slots — are updated inline with the array fields held
// in registers; merged or overflowing slots fall back to the general Add,
// which leaves the counter in the identical state the fast path would have.
//
//salsa:hotpath
func (s *Salsa) AddSlots(slots []uint32, v int64) {
	if v < 0 || s.blWords == nil {
		for _, i := range slots {
			s.Add(int(i), v)
		}
		return
	}
	// The per-slot probe is the branchless probeLevel (rowset.go) rather
	// than level()'s early out, which would mispredict on the mixed
	// merged/unmerged slot populations batches sweep over. 8-bit rows use
	// the parallel three-bit probeLevel8.
	if s.s == 8 {
		bl, words, d := s.blWords, s.words, uint64(v)
		for _, u := range slots {
			i := uint(u)
			lvl := probeLevel8(bl[i>>6], i)
			off := (i &^ (1<<lvl - 1)) << 3
			w, sh := off>>6, off&63
			if lvl == 3 {
				words[w] = satAdd(words[w], d)
				continue
			}
			mask := (uint64(1) << (8 << lvl)) - 1
			if nv := (words[w]>>sh)&mask + d; nv <= mask {
				words[w] = words[w]&^(mask<<sh) | nv<<sh
			} else {
				s.Add(int(u), v) // overflow: merge via the general path
			}
		}
		return
	}
	bl, words, sb, maxLvl, d := s.blWords, s.words, s.s, s.maxLvl, uint64(v)
	for _, u := range slots {
		i := uint(u)
		lvl := probeLevel(bl[i>>6], i, maxLvl)
		size := sb << lvl
		off := (i &^ (1<<lvl - 1)) * sb
		w, sh := off>>6, off&63
		if size == 64 {
			words[w] = satAdd(words[w], d)
			continue
		}
		mask := (uint64(1) << size) - 1
		if nv := (words[w]>>sh)&mask + d; nv <= mask {
			words[w] = words[w]&^(mask<<sh) | nv<<sh
		} else {
			s.Add(int(u), v) // overflow: merge via the general path
		}
	}
}

// AddSlots adds v to every addressed counter, in slot order. Unmerged cells
// that do not overflow are updated with one aligned read-modify-write and
// the link words held in registers; merged spans and overflows fall back to
// the general Add, whose span growth fires exactly as it would under the
// same sequence of single Adds.
//
//salsa:hotpath
func (t *Tango) AddSlots(slots []uint32, v int64) {
	if v < 0 {
		for _, i := range slots {
			t.Add(int(i), v)
		}
		return
	}
	words, link, sb, d := t.words, t.link.Words(), t.s, uint64(v)
	mask := (uint64(1) << sb) - 1
	for _, u := range slots {
		i := uint(u)
		if tangoMerged(link, i) {
			t.Add(int(u), v) // merged span: general path scans and grows it
			continue
		}
		off := i * sb
		w, sh := off>>6, off&63
		if nv := (words[w]>>sh)&mask + d; nv <= mask {
			words[w] = words[w]&^(mask<<sh) | nv<<sh
		} else {
			t.Add(int(u), v) // overflow: absorb neighbors via the general path
		}
	}
}

// AddSignedSlots adds signs[j]*v to the counter addressed by slots[j], the
// Count Sketch batch primitive. The two's-complement read-modify-write runs
// with the array fields held in registers; saturation matches Add exactly.
//
//salsa:hotpath
func (f *FixedSign) AddSignedSlots(slots []uint32, signs []int8, v int64) {
	_ = signs[len(slots)-1]
	words, bits, maxV := f.words, f.bits, f.maxV
	mask := maxValue(bits)
	shift := 64 - bits
	for j, u := range slots {
		off := uint(u) * bits
		w, sh := off>>6, off&63
		cur := int64((words[w]>>sh&mask)<<shift) >> shift
		nv := satAddSigned(cur, int64(signs[j])*v)
		if nv > maxV {
			nv = maxV
		} else if nv < -maxV {
			nv = -maxV
		}
		words[w] = words[w]&^(mask<<sh) | (uint64(nv)&mask)<<sh
	}
}

// AddSignedSlots adds signs[j]*v to the counter addressed by slots[j], in
// slot order. Counters whose updated magnitude still fits are updated inline
// through the branchless merge-bit probe; overflows fall back to the
// general Add, so merges fire exactly as under sequential Adds.
//
//salsa:hotpath
func (s *SalsaSign) AddSignedSlots(slots []uint32, signs []int8, v int64) {
	_ = signs[len(slots)-1]
	bl := s.blWords
	if bl == nil {
		for j, i := range slots {
			s.Add(int(i), int64(signs[j])*v)
		}
		return
	}
	words, sb, maxLvl := s.words, s.s, s.maxLvl
	for j, u := range slots {
		i, sv := uint(u), int64(signs[j])*v
		var lvl uint
		if sb == 8 {
			lvl = probeLevel8(bl[i>>6], i)
		} else {
			lvl = probeLevel(bl[i>>6], i, maxLvl)
		}
		size := sb << lvl
		off := (i &^ (1<<lvl - 1)) * sb
		w, sh := off>>6, off&63
		if size == 64 {
			nv := satAddSigned(decodeSM(words[w], 64), sv)
			// Clamp MinInt64 as SalsaSignUpdateEach does.
			if nv < -maxMag(64) {
				nv = -maxMag(64)
			}
			words[w] = encodeSM(nv, 64)
			continue
		}
		mask := (uint64(1) << size) - 1
		nv := satAddSigned(decodeSM((words[w]>>sh)&mask, size), sv)
		if nv > maxMag(size) || nv < -maxMag(size) {
			s.Add(int(u), sv) // overflow: merge via the general path
			continue
		}
		words[w] = words[w]&^(mask<<sh) | encodeSM(nv, size)<<sh
	}
}
