package salsad

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/bits"
	"slices"
	"testing"
)

// bitWriter writes a deflate stream by hand, least significant bit first,
// for blocks the HuffmanOnly writer never writes.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint64, n uint) {
	w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// header writes a block header of the given type.
func (w *bitWriter) header(final bool, typ uint64) {
	last := uint64(0)
	if final {
		last = 1
	}
	w.bits(last|typ<<1, 3)
}

// bytes returns the stream, its last byte padded with zeros.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.out
}

// stored writes a stored block holding data, with nlen as its NLEN field.
func (w *bitWriter) stored(final bool, data []byte, nlen uint16) {
	w.header(final, 0)
	w.bytes()
	w.out = binary.LittleEndian.AppendUint16(w.out, uint16(len(data)))
	w.out = binary.LittleEndian.AppendUint16(w.out, nlen)
	w.out = append(w.out, data...)
}

// fixedSym writes a literal/length symbol in the fixed code.
func (w *bitWriter) fixedSym(s int) {
	switch {
	case s < 144:
		w.code(uint64(0x30+s), 8)
	case s < 256:
		w.code(uint64(0x190+s-144), 9)
	case s < 280:
		w.code(uint64(s-256), 7)
	default:
		w.code(uint64(0xc0+s-280), 8)
	}
}

// fixed writes a fixed-Huffman block holding the literals lits.
func (w *bitWriter) fixed(final bool, lits []byte) {
	w.header(final, 1)
	for _, c := range lits {
		w.fixedSym(int(c))
	}
	w.fixedSym(endOfBlock)
}

// clenOp is one code-length symbol of a dynamic header with its extra
// bits: 0–15 a length, 16 repeats the last, 17 and 18 repeat a zero.
type clenOp struct{ sym, extra int }

// clenLens is a complete code-length code: symbols 0–12 get 4-bit codes,
// 13–18 5-bit ones.
var clenLens = func() (l [19]uint8) {
	for i := range l {
		l[i] = 4
		if i > 12 {
			l[i] = 5
		}
	}
	return l
}()

// canonicalCodes returns the canonical Huffman code of each symbol with
// the given lengths.
func canonicalCodes(lens []uint8) []uint64 {
	var count, next [maxCodeLen + 2]uint64
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l+1] = (next[l] + count[l]) << 1
	}
	codes := make([]uint64, len(lens))
	for s, l := range lens {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamic writes a dynamic-Huffman block header declaring nlit and ndist
// code lengths and the code-length code clens, whose lengths follow as
// ops.
func (w *bitWriter) dynamic(final bool, nlit, ndist int, clens [19]uint8, ops []clenOp) {
	w.header(final, 2)
	w.bits(uint64(nlit-257)|uint64(ndist-1)<<5|15<<10, 14)
	for _, s := range codeOrder {
		w.bits(uint64(clens[s]), 3)
	}
	codes := canonicalCodes(clens[:])
	extra := [19]uint{16: 2, 17: 3, 18: 7}
	for _, op := range ops {
		w.code(codes[op.sym], uint(clens[op.sym]))
		w.bits(uint64(op.extra), extra[op.sym])
	}
}

// lensOps returns the ops that send lens, with runs of three or more
// zeros as repeats.
func lensOps(lens []uint8) []clenOp {
	var ops []clenOp
	for i := 0; i < len(lens); {
		z := 0
		for i+z < len(lens) && lens[i+z] == 0 && z < 138 {
			z++
		}
		switch {
		case z >= 11:
			ops = append(ops, clenOp{18, z - 11})
		case z >= 3:
			ops = append(ops, clenOp{17, z - 3})
		default:
			ops, z = append(ops, clenOp{int(lens[i]), 0}), 1
		}
		i += z
	}
	return ops
}

// sectionLens are the literal/length code lengths of a dynamic block
// holding the sections {1, 3, 1} and {9, 9, 9}: a 2-bit code each for 1,
// 3, 9 and the end of block.
func sectionLens() []uint8 {
	l := make([]uint8, 257)
	l[1], l[3], l[9], l[endOfBlock] = 2, 2, 2, 2
	return l
}

// dynamicHeader writes a final dynamic block's header alone.
func dynamicHeader(nlit, ndist int, clens [19]uint8, ops []clenOp) []byte {
	var w bitWriter
	w.dynamic(true, nlit, ndist, clens, ops)
	return w.bytes()
}

// dynamicBlock writes a final dynamic block whose code has the given
// literal/length and distance lengths, holding the literals lits.
func dynamicBlock(litLens, distLens []uint8, lits []byte) []byte {
	return dynamicBlockOps(litLens, len(distLens), lensOps(slices.Concat(litLens, distLens)), lits)
}

// dynamicBlockOps is dynamicBlock with the header's code lengths sent as
// ops.
func dynamicBlockOps(litLens []uint8, ndist int, ops []clenOp, lits []byte) []byte {
	var w bitWriter
	w.dynamic(true, len(litLens), ndist, clenLens, ops)
	codes := canonicalCodes(litLens)
	for _, c := range lits {
		w.code(codes[c], uint(litLens[c]))
	}
	w.code(codes[endOfBlock], uint(litLens[endOfBlock]))
	return w.bytes()
}

// inflateAll inflates data with an inflater and returns its output and
// how many input bytes follow the stream. An n-byte stream holds at most
// 8n literals, one per bit.
func inflateAll(data []byte) (out []byte, unread int, err error) {
	var f inflater
	f.reset(data)
	out = make([]byte, 8*len(data)+1)
	n, err := f.read(out)
	return out[:n], f.unread(), err
}

// FuzzInflateMatchesFlate checks the inflater against compress/flate, the
// reader it replaced. Read as a deflate stream, any input the inflater
// accepts, flate accepts too, with the same output and the same bytes
// left after the stream. Read as the sections of an envelope, the input
// coded by a HuffmanOnly writer as Encode codes it inflates to exactly
// those sections.
func FuzzInflateMatchesFlate(f *testing.F) {
	var fixed, stored bitWriter
	fixed.fixed(true, []byte{1, 2, 3})
	stored.stored(true, []byte{1, 2, 3}, ^uint16(3))
	f.Add(fixed.bytes())
	f.Add(stored.bytes())
	f.Add(dynamicBlock(sectionLens(), []uint8{1}, []byte{1, 3, 1, 9, 9, 9}))
	f.Add(huffmanSections(f, []byte{1, 3, 1}, []byte{9, 9, 9}))
	f.Add(huffmanSections(f, zeroRuns(1, 2, 7, 8, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, unread, err := inflateAll(data); err == nil {
			src := bytes.NewReader(data)
			ref, err := io.ReadAll(io.LimitReader(flate.NewReader(src), int64(8*len(data)+1)))
			if err != nil || !bytes.Equal(ref, out) || src.Len() != unread {
				t.Fatalf("inflater read %d bytes leaving %d; flate read %d leaving %d: %v",
					len(out), unread, len(ref), src.Len(), err)
			}
		}
		// The pooled encoder's writer, which TestEncodeMatchesFreshWriter
		// pins to a new one's bytes, saves building a writer per input.
		e := encoders.Get().(*encoder)
		defer encoders.Put(e)
		cut := len(data) / 2
		coded, err := e.code(data[:cut], data[cut:])
		if err != nil {
			t.Fatal(err)
		}
		out, unread, err := inflateAll(coded)
		if err != nil || unread != 0 || !bytes.Equal(out, data) {
			t.Fatalf("HuffmanOnly sections do not inflate exactly: %v", err)
		}
	})
}

// TestUvarintMatchesBinary checks the run section's varint reader against
// binary.Uvarint on every count of one and two bytes and on the longest
// and overlong encodings.
func TestUvarintMatchesBinary(t *testing.T) {
	var inputs [][]byte
	for a := 0; a < 256; a++ {
		inputs = append(inputs, []byte{byte(a)})
		for b := 0; b < 256; b++ {
			inputs = append(inputs, []byte{byte(a), byte(b)})
		}
	}
	for _, last := range []byte{0, 1, 2, 0x7f, 0x80} {
		for n := 8; n <= 11; n++ {
			inputs = append(inputs, append(bytes.Repeat([]byte{0xff}, n), last))
		}
	}
	for _, in := range inputs {
		v, i := uvarint(append([]byte{7}, in...), 1)
		want, k := binary.Uvarint(in)
		if k <= 0 {
			want, k = 0, 0
		}
		if v != want || i != 1+k {
			t.Fatalf("uvarint(%x) = %d, %d; binary.Uvarint gives %d, %d", in, v, i-1, want, k)
		}
	}
}
