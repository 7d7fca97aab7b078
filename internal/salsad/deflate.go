package salsad

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The encode side of the envelope codec. huffWriter writes, byte for byte,
// the deflate stream compress/flate's HuffmanOnly writer writes for the
// run section, a Flush, the literal section and a Close, so a frame does
// not depend on which of the two coded it:
//
//   - each section goes in blocks of at most maxBlockBytes input bytes;
//   - a block is a dynamic-Huffman block of its bytes and an end-of-block,
//     under the code compress/flate builds for the block's byte counts, or
//     a stored block when that code saves less than a sixteenth of its own
//     length (flate's writeBlockHuff rule);
//   - the Flush is an empty stored block, the Close an empty final one.
//
// The codes are compress/flate's length-limited ones: its boundary
// package-merge (bitCounts) over the symbols ordered by count, then by
// symbol, at most 15 bits for literals and 7 for the code-length code. The
// code lengths travel in flate's 16/17/18 run coding with a single 1-bit
// distance code after them, and the code-length code's trailing unused
// symbols are trimmed as flate trims them.

// maxClenBits bounds the code-length code compress/flate builds; its
// literal codes go to deflate's limit, maxCodeLen.
const maxClenBits = 7

// clenExtraBits are the extra bits after each code-length symbol: 16
// repeats the last length 3–6 times, 17 a zero 3–10 times and 18 a zero
// 11–138 times.
var clenExtraBits = [len(codeOrder)]uint8{16: 2, 17: 3, 18: 7}

// huffWriter holds a stream being written and the tables of its current
// block, reused from block to block and stream to stream.
type huffWriter struct {
	out []byte // the stream, with capacity for an 8-byte store past its end
	b   uint64 // bits not yet in out, the stream's next bit lowest
	nb  uint   // bits in b, below 32 between calls

	// hist counts a block's bytes four ways, so that a run of equal bytes
	// does not make each count wait on the one before it.
	hist  [4][256]uint32
	freq  [endOfBlock + 1]uint32 // the block's literal counts
	lens  [endOfBlock + 2]uint8  // literal code lengths, then the distance code's
	codes [endOfBlock + 1]uint32 // literal codes, bit-reversed, length in bits 16 up

	cfreq  [len(codeOrder)]uint32 // code-length symbol counts
	clens  [len(codeOrder)]uint8
	ccodes [len(codeOrder)]uint32
	ops    [endOfBlock + 2]uint16 // code-length symbols, extra bits in bits 8 up

	keys   [endOfBlock + 1]uint64 // count<<16 | symbol, sorted
	counts [endOfBlock + 2]int32  // the sorted counts and a sentinel
}

// code returns the stream of runs and then lits. It is held in w until w
// codes again.
func (w *huffWriter) code(runs, lits []byte) []byte {
	w.out, w.b, w.nb = w.out[:0], 0, 0
	w.section(runs)
	w.stored(nil, false)
	w.section(lits)
	w.stored(nil, true)
	return w.out
}

func (w *huffWriter) section(s []byte) {
	for len(s) > 0 {
		n := min(len(s), maxBlockBytes)
		w.block(s[:n])
		s = s[n:]
	}
}

// block writes in as one block, Huffman-coded or stored.
func (w *huffWriter) block(in []byte) {
	// A coded block is never longer than the same bytes stored, and at
	// most 31 bits of the last block wait in b.
	w.out = slices.Grow(w.out, len(in)+32)
	w.histogram(in)
	w.lengths(w.freq[:], w.lens[:endOfBlock+1], maxCodeLen)
	w.lens[endOfBlock+1] = 1
	ops := w.clenOps()
	w.lengths(w.cfreq[:], w.clens[:], maxClenBits)
	nclen := len(codeOrder)
	for nclen > 4 && w.cfreq[codeOrder[nclen-1]] == 0 {
		nclen--
	}

	// The block's length in bits as flate reckons it, one bit over: it
	// counts its 1-bit distance code as if the block used it once.
	size := 3 + 5 + 5 + 4 + 3*nclen + 1
	for s, f := range w.cfreq {
		size += int(f) * int(w.clens[s]+clenExtraBits[s])
	}
	for s, f := range w.freq {
		size += int(f) * int(w.lens[s])
	}
	if (len(in)+5)*8 < size+size>>4 {
		w.stored(in, false)
		return
	}

	canonical(w.lens[:endOfBlock+1], w.codes[:])
	canonical(w.clens[:], w.ccodes[:])
	w.put(2<<1|uint64(nclen-4)<<13, 17) // not final, dynamic; 257 literal codes, 1 distance code
	for _, s := range codeOrder[:nclen] {
		w.put(uint64(w.clens[s]), 3)
	}
	for _, op := range ops {
		sym := op & 0xff
		w.putCode(w.ccodes[sym])
		w.put(uint64(op>>8), uint(clenExtraBits[sym]))
	}

	// Three codes of at most 15 bits fit the bit buffer over its at most 7
	// leftover bits, so one 8-byte store follows every three.
	w.store()
	codes := &w.codes
	buf, n, b, nb := w.out[:cap(w.out)], len(w.out), w.b, w.nb
	i := 0
	for ; i+3 <= len(in); i += 3 {
		c := codes[in[i]]
		b |= uint64(c&0xffff) << (nb & 63)
		nb += uint(c >> 16)
		c = codes[in[i+1]]
		b |= uint64(c&0xffff) << (nb & 63)
		nb += uint(c >> 16)
		c = codes[in[i+2]]
		b |= uint64(c&0xffff) << (nb & 63)
		nb += uint(c >> 16)
		binary.LittleEndian.PutUint64(buf[n:], b)
		n += int(nb >> 3)
		b >>= nb &^ 7
		nb &= 7
	}
	w.out, w.b, w.nb = buf[:n], b, nb
	for _, c := range in[i:] {
		w.putCode(codes[c])
	}
	w.putCode(codes[endOfBlock])
}

// stored writes in as a stored block: its header, the rest of the byte,
// LEN and NLEN, then in.
func (w *huffWriter) stored(in []byte, final bool) {
	w.out = slices.Grow(w.out, len(in)+32)
	if final {
		w.put(1, 3)
	} else {
		w.put(0, 3)
	}
	w.nb = (w.nb + 7) &^ 7
	w.store()
	w.put(uint64(len(in))|uint64(^uint16(len(in)))<<16, 32)
	w.out = append(w.out, in...)
}

// put appends the n ≤ 32 low bits of v to the stream.
func (w *huffWriter) put(v uint64, n uint) {
	w.b |= v << w.nb
	if w.nb += n; w.nb >= 32 {
		w.store()
	}
}

// putCode appends a code of codes or ccodes.
func (w *huffWriter) putCode(c uint32) { w.put(uint64(c&0xffff), uint(c>>16)) }

// store moves the whole bytes of the bit buffer to out with one 8-byte
// write.
func (w *huffWriter) store() {
	n := len(w.out)
	binary.LittleEndian.PutUint64(w.out[n:n+8], w.b)
	w.out = w.out[:n+int(w.nb>>3)]
	w.b >>= w.nb &^ 7
	w.nb &= 7
}

// histogram sets freq to the byte counts of in and one end-of-block.
func (w *huffWriter) histogram(in []byte) {
	h := &w.hist
	*h = [4][256]uint32{}
	i := 0
	for ; i+4 <= len(in); i += 4 {
		h[0][in[i]]++
		h[1][in[i+1]]++
		h[2][in[i+2]]++
		h[3][in[i+3]]++
	}
	for _, c := range in[i:] {
		h[0][c]++
	}
	for s := range 256 {
		w.freq[s] = h[0][s] + h[1][s] + h[2][s] + h[3][s]
	}
	w.freq[endOfBlock] = 1
}

// clenOps returns the code-length symbols that send lens as compress/flate
// sends them, and counts them in cfreq. A run of a nonzero length sends the
// length, then 16s for up to six more at a time; a run of zeros sends 18s
// for up to 138 at a time, then a 17 for three to ten; what remains of a
// run goes one length at a time.
func (w *huffWriter) clenOps() []uint16 {
	w.cfreq = [len(codeOrder)]uint32{}
	ops := w.ops[:0]
	op := func(sym uint8, extra int) {
		w.cfreq[sym]++
		ops = append(ops, uint16(sym)|uint16(extra)<<8)
	}
	lens := w.lens[:]
	for i := 0; i < len(lens); {
		l, n := lens[i], 1
		for i+n < len(lens) && lens[i+n] == l {
			n++
		}
		i += n
		if l != 0 {
			op(l, 0)
			for n--; n >= 3; n -= min(n, 6) {
				op(16, min(n, 6)-3)
			}
		} else {
			for ; n >= 11; n -= min(n, 138) {
				op(18, min(n, 138)-11)
			}
			if n >= 3 {
				op(17, n-3)
				n = 0
			}
		}
		for ; n > 0; n-- {
			op(l, 0)
		}
	}
	return ops
}

// lengths sets lens[s] to the length compress/flate gives symbol s in its
// code for the counts freq, at most maxBits long: none at a count of zero,
// one bit each when at most two counts are not zero, and otherwise the
// lengths of its bitCounts, shortest first to the largest counts and,
// among equal counts, to the larger symbols.
func (w *huffWriter) lengths(freq []uint32, lens []uint8, maxBits int32) {
	keys := w.keys[:0]
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			keys = append(keys, uint64(f)<<16|uint64(s))
		}
	}
	if len(keys) <= 2 {
		for _, k := range keys {
			lens[uint16(k)] = 1
		}
		return
	}
	slices.Sort(keys)
	counts := w.counts[:len(keys)+1]
	for i, k := range keys {
		counts[i] = int32(k >> 16)
	}
	counts[len(keys)] = math.MaxInt32
	i := len(keys)
	for l, n := range bitCounts(counts, maxBits) {
		for ; n > 0; n-- {
			i--
			lens[uint16(keys[i])] = uint8(l)
		}
	}
}

// bitCounts is compress/flate's boundary package-merge. Given n ≥ 3 counts
// in increasing order and a math.MaxInt32 sentinel after them, it returns
// how many of the n symbols get a code of each length, at most maxBits and
// at most n−1 long. Level l of the merge makes the nodes at depth l of the
// tree, each a leaf (the next count) or a pair of the nodes of level l−1,
// whichever weighs less, a pair on a tie; leafCounts[l][j] counts the
// leaves left of the level-j ancestor of level l's last node.
func bitCounts(list []int32, maxBits int32) (bitCount [maxCodeLen + 1]int32) {
	type levelInfo struct {
		lastFreq     int32 // the last node's weight
		nextCharFreq int32 // the next leaf's
		nextPairFreq int32 // the next pair's, once level−1 made it
		needed       int32 // nodes this level must still make
	}
	n := int32(len(list) - 1)
	maxBits = min(maxBits, n-1)
	var levels [maxCodeLen + 1]levelInfo
	var leafCounts [maxCodeLen + 1][maxCodeLen + 1]int32
	for level := int32(1); level <= maxBits; level++ {
		levels[level] = levelInfo{lastFreq: list[1], nextCharFreq: list[2], nextPairFreq: list[0] + list[1]}
		leafCounts[level][level] = 2
	}
	levels[1].nextPairFreq = math.MaxInt32
	levels[maxBits].needed = 2*n - 4
	for level := maxBits; ; {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// No leaves and no pairs are left: this level and those below
			// it are done.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}
		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			k := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			leafCounts[level][level] = k
			l.nextCharFreq = list[k]
		} else {
			// The pair's ancestors are those of level−1's last node.
			l.lastFreq = l.nextPairFreq
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[level-1].needed = 2
		}
		if l.needed--; l.needed == 0 {
			if level == maxBits {
				break
			}
			levels[level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// Replenish the levels below that a pair drew from.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		bitCount[maxBits+1-level] = counts[level] - counts[level-1]
	}
	return bitCount
}

// canonical sets codes[s] to symbol s's code in the canonical code with
// lengths lens (RFC 1951 §3.2.2), bit-reversed for the stream, with its
// length in bits 16 and up.
func canonical(lens []uint8, codes []uint32) {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint16(0); l <= maxCodeLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}
