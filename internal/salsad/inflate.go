package salsad

import (
	"encoding/binary"
	"math/bits"
)

// The decode side of the envelope codec. The writer in deflate.go codes
// each section as compress/flate at HuffmanOnly does, in stored blocks and
// dynamic-Huffman blocks of literals only, so the decoder needs only the
// literal half of RFC 1951: it reads stored, fixed-Huffman and
// dynamic-Huffman blocks whose symbols are bytes and end-of-block codes.
// A length/distance symbol (a back-reference) is malformed here: the
// codec never writes one, so no peer's encoder made a stream that holds
// one.
//
// The inflater keeps a 64-bit bit buffer refilled eight bytes at a time
// and decodes a Huffman code with one lookup in a 2^tableBits-entry table
// when the code fits it, and bit by bit in canonical order when it is
// longer. Both tables live in the pooled decoder and are rebuilt for each
// block, so inflating allocates nothing.

const (
	maxCodeLen = 15  // the longest Huffman code deflate allows
	maxLitSyms = 286 // literal/length symbols a dynamic block may declare
	maxDisSyms = 30  // distance symbols a dynamic block may declare
	endOfBlock = 256 // the literal/length symbol that ends a block

	tableBits = 10
	tableMask = 1<<tableBits - 1
)

// codeOrder is the order in which a dynamic block header sends the
// lengths of the code-length code's symbols.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// fixedLens are the code lengths of the fixed literal/length code
// (RFC 1951 §3.2.6).
var fixedLens = func() (l [288]uint8) {
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	return l
}()

// huffman is a canonical Huffman code ready to decode. An entry of table,
// indexed by the next tableBits bits of the stream, holds sym<<6 | len for
// the code those bits start with; zero means the code is longer than
// tableBits bits, or no code starts with them.
type huffman struct {
	table [1 << tableBits]uint16
	count [maxCodeLen + 1]uint16 // codes of each length
	syms  [288]uint16            // symbols in canonical order: by length, then value
	// longFirst is the first code of length tableBits+1, and longIndex
	// the position of its symbol in syms.
	longFirst, longIndex uint16
}

// countCodes counts the codes of each length in lens and reports whether
// they form a code the inflater accepts: a complete one, a lone code of
// length 1, or none at all. An over-subscribed code, or any other
// incomplete one, is malformed, as in compress/flate.
func countCodes(lens []uint8, count *[maxCodeLen + 1]uint16) bool {
	*count = [maxCodeLen + 1]uint16{}
	for _, l := range lens {
		count[l]++
	}
	n := len(lens) - int(count[0])
	count[0] = 0
	// left counts the codes of length l still unassigned; once negative,
	// the code is over-subscribed and it stays negative.
	left := 1
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - int(count[l])
	}
	return left == 0 || n == 0 || (n == 1 && count[1] == 1)
}

// build makes h decode the code whose lengths are lens, indexed by symbol,
// and reports whether countCodes accepts them.
func (h *huffman) build(lens []uint8) bool {
	if !countCodes(lens, &h.count) {
		return false
	}
	var next, offs [maxCodeLen + 2]uint16
	for l := 1; l <= maxCodeLen; l++ {
		next[l+1] = (next[l] + h.count[l]) << 1
		offs[l+1] = offs[l] + h.count[l]
	}
	h.longFirst, h.longIndex = next[tableBits+1], offs[tableBits+1]
	h.table = [1 << tableBits]uint16{}
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		h.syms[offs[l]] = uint16(sym)
		offs[l]++
		code := next[l]
		next[l]++
		if l > tableBits {
			continue
		}
		e := uint16(sym)<<6 | uint16(l)
		for i := int(bits.Reverse16(code) >> (16 - l)); i < len(h.table); i += 1 << l {
			h.table[i] = e
		}
	}
	return true
}

// inflater decodes one deflate stream from in. The stream's state sits
// between blocks, inside a stored block (left bytes still to copy) or
// inside a Huffman block (huff).
type inflater struct {
	in   []byte
	pos  int    // the next byte of in to load into b
	b    uint64 // bit buffer; the stream's next bit is its lowest
	nb   uint   // bits in b
	last bool   // the current block is the stream's final block
	huff bool   // inside a Huffman block
	left int    // bytes still to copy from the current stored block

	lit  huffman // the current Huffman block's literal/length code
	clen huffman // a dynamic header's code-length code
	lens [maxLitSyms + maxDisSyms]uint8
}

// reset starts a new stream over in.
func (f *inflater) reset(in []byte) {
	f.in, f.pos, f.b, f.nb = in, 0, 0, 0
	f.last, f.huff, f.left = false, false, 0
}

// refill loads input into the bit buffer until it holds at least 56 bits,
// or all the input. With eight bytes left it loads them in one read and
// counts the whole bytes that fit; the bits of a part byte beyond nb are
// loaded again, at the same place, by the next refill.
func (f *inflater) refill() {
	if f.pos+8 <= len(f.in) {
		f.b |= binary.LittleEndian.Uint64(f.in[f.pos:]) << f.nb
		f.pos += int(63-f.nb) >> 3
		f.nb |= 56
		return
	}
	for f.nb <= 56 && f.pos < len(f.in) {
		f.b |= uint64(f.in[f.pos]) << f.nb
		f.pos++
		f.nb += 8
	}
}

// take removes the next n ≤ 32 bits from the stream, or reports false
// when the input ends first.
func (f *inflater) take(n uint) (uint32, bool) {
	if f.nb < n {
		f.refill()
		if f.nb < n {
			return 0, false
		}
	}
	v := uint32(f.b & (1<<n - 1))
	f.b >>= n
	f.nb -= n
	return v, true
}

// decode removes the next code of h from the stream and returns its
// symbol, or reports false for a truncated stream or bits that start no
// code.
func (f *inflater) decode(h *huffman) (int, bool) {
	if f.nb < maxCodeLen {
		f.refill()
	}
	if e := h.table[f.b&tableMask]; e != 0 {
		n := uint(e & 63)
		if n > f.nb {
			return 0, false
		}
		f.b >>= n
		f.nb -= n
		return int(e >> 6), true
	}
	// No code of up to tableBits bits starts the stream, so it goes on
	// in canonical order one bit at a time: code holds the bits read,
	// first is the first code of length l, and index the position of its
	// symbol in syms.
	code := int(bits.Reverse16(uint16(f.b&tableMask))>>(16-tableBits)) << 1
	first, index := int(h.longFirst), int(h.longIndex)
	for l := uint(tableBits + 1); l <= maxCodeLen && l <= f.nb; l++ {
		code |= int(f.b>>(l-1)) & 1
		count := int(h.count[l])
		if code-first < count {
			f.b >>= l
			f.nb -= l
			return int(h.syms[index+code-first]), true
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, false
}

// read inflates into dst until it is full or the stream ends, and returns
// how many bytes it wrote. A malformed or truncated stream, or a
// back-reference, is ErrBadFrame.
func (f *inflater) read(dst []byte) (int, error) {
	n := 0
	for n < len(dst) {
		switch {
		case f.huff:
			k, ok := f.literals(dst[n:])
			n += k
			if !ok {
				return n, ErrBadFrame
			}
		case f.left > 0:
			k := copy(dst[n:], f.in[f.pos:f.pos+f.left])
			f.pos += k
			f.left -= k
			n += k
		case f.last: // the final block has ended
			return n, nil
		default:
			if !f.header() {
				return n, ErrBadFrame
			}
		}
	}
	return n, nil
}

// unread returns how many input bytes follow the last one the stream has
// used.
func (f *inflater) unread() int {
	return len(f.in) - f.pos + int(f.nb>>3)
}

// literals decodes the current Huffman block into dst until dst is full
// or the block ends, and returns how many bytes it wrote. It reports false
// for a truncated block, bits that start no code, or a length symbol.
func (f *inflater) literals(dst []byte) (int, bool) {
	for i := 0; i < len(dst); i++ {
		i += f.fastLiterals(dst[i:])
		if i == len(dst) {
			break
		}
		sym, ok := f.decode(&f.lit)
		switch {
		case !ok || sym > endOfBlock:
			return i, false
		case sym == endOfBlock:
			f.huff = false
			return i, true
		}
		dst[i] = byte(sym)
	}
	return len(dst), true
}

// fastLiterals decodes literals into dst while each takes one table
// lookup and eight bytes of input are left to refill from, and returns
// how many it wrote. The bit buffer stays in registers meanwhile.
func (f *inflater) fastLiterals(dst []byte) int {
	table := &f.lit.table
	in, pos, b, nb := f.in, f.pos, f.b, f.nb
	i := 0
	for ; i < len(dst); i++ {
		if nb < maxCodeLen {
			if pos+8 > len(in) {
				break
			}
			b |= binary.LittleEndian.Uint64(in[pos:]) << nb
			pos += int(63-nb) >> 3
			nb |= 56
		}
		// An entry below 256<<6 that is not zero holds a literal and its
		// code length.
		e := table[b&tableMask]
		if e-1 >= 256<<6-1 {
			break
		}
		dst[i] = byte(e >> 6)
		b >>= e & 63
		nb -= uint(e & 63)
	}
	f.pos, f.b, f.nb = pos, b, nb
	return i
}

// header reads the next block's header and readies the block. It reports
// false for a malformed or truncated header.
func (f *inflater) header() bool {
	h, ok := f.take(3)
	if !ok {
		return false
	}
	f.last = h&1 != 0
	switch h >> 1 {
	case 0:
		return f.stored()
	case 1:
		f.huff = f.lit.build(fixedLens[:])
		return true
	case 2:
		f.huff = f.dynamic()
		return f.huff
	}
	return false // block type 3 is reserved
}

// stored readies a stored block: the rest of the current byte is skipped,
// and LEN, then its ones' complement NLEN, follow as 16-bit words.
func (f *inflater) stored() bool {
	// Hand the whole bytes still in the bit buffer back to the input.
	f.pos -= int(f.nb >> 3)
	f.b, f.nb = 0, 0
	if len(f.in)-f.pos < 4 {
		return false
	}
	n := binary.LittleEndian.Uint16(f.in[f.pos:])
	if binary.LittleEndian.Uint16(f.in[f.pos+2:]) != ^n {
		return false
	}
	f.pos += 4
	if int(n) > len(f.in)-f.pos {
		return false
	}
	f.left = int(n)
	return true
}

// dynamic reads a dynamic block's header (RFC 1951 §3.2.7) and builds its
// literal/length code. The distance code is checked and then unused.
func (f *inflater) dynamic() bool {
	hdr, ok := f.take(14)
	if !ok {
		return false
	}
	nlit, ndist, nclen := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > maxLitSyms || ndist > maxDisSyms {
		return false
	}
	var clens [19]uint8
	for _, sym := range codeOrder[:nclen] {
		l, ok := f.take(3)
		if !ok {
			return false
		}
		clens[sym] = uint8(l)
	}
	if !f.clen.build(clens[:]) {
		return false
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		sym, ok := f.decode(&f.clen)
		if !ok {
			return false
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 repeat a
		// zero 3–10 and 11–138 times.
		var l uint8
		var rep uint32
		switch sym {
		case 16:
			if i == 0 {
				return false
			}
			l = lens[i-1]
			rep, ok = f.take(2)
			rep += 3
		case 17:
			rep, ok = f.take(3)
			rep += 3
		default:
			rep, ok = f.take(7)
			rep += 11
		}
		if !ok || int(rep) > len(lens)-i {
			return false
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = l
		}
	}
	if lens[endOfBlock] == 0 {
		return false
	}
	var dist [maxCodeLen + 1]uint16
	return countCodes(lens[nlit:], &dist) && f.lit.build(lens[:nlit])
}
