package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"salsa/internal/bitvec"
)

// Binary serialization for counter arrays: fixed little-endian headers
// followed by the raw backing words. The format is versioned and
// self-describing enough to reject mismatched geometry; it exists so
// sketches built on different machines can be shipped and merged
// (§V, "Merging and Subtracting SALSA Sketches").
//
// Every array states its exact encoded length (BinarySize) and appends its
// encoding to a caller's buffer (AppendBinary), so a sketch encodes all its
// rows into one buffer allocated once. Decoders check each declared word
// count against the payload length and the geometry, then fill the new
// array's own words.

const (
	marshalMagic   = uint32(0x5a15a001)
	kindFixed      = byte(1)
	kindFixedSign  = byte(2)
	kindSalsa      = byte(3)
	kindSalsaSign  = byte(4)
	kindTango      = byte(5)
	headerLen      = 4 + 1 + 1 + 1 + 1 + 8 // magic, kind, bits, policy, compact, width
	errShortBuffer = "core: truncated marshal payload"
)

// ErrBadPayload is returned when unmarshaling data that is not a counter
// array of the expected kind.
var ErrBadPayload = errors.New("core: not a counter array payload")

// maxMarshalWidth bounds decoded geometry so a corrupt or hostile payload
// cannot trigger a huge allocation: the words are length-checked against
// the payload, and the width must agree with them. It exceeds int on
// 32-bit platforms, so the width check and word arithmetic run in 64 bits.
const maxMarshalWidth = int64(1) << 31

// wordsForGeometry returns the expected backing word count, or -1 for
// invalid geometry.
func wordsForGeometry(width int, bits uint) int {
	if width <= 0 || int64(width) > maxMarshalWidth || !validBits(bits, 64) {
		return -1
	}
	return int((uint64(width)*uint64(bits) + 63) / 64)
}

func appendHeader(buf []byte, kind byte, bits uint, policy byte, compact bool, width int) []byte {
	var c byte
	if compact {
		c = 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, marshalMagic)
	buf = append(buf, kind, byte(bits), policy, c)
	return binary.LittleEndian.AppendUint64(buf, uint64(width))
}

func readHeader(data []byte, wantKind byte) (bits uint, policy byte, compact bool, width int, rest []byte, err error) {
	if len(data) < headerLen {
		return 0, 0, false, 0, nil, errors.New(errShortBuffer)
	}
	if binary.LittleEndian.Uint32(data) != marshalMagic {
		return 0, 0, false, 0, nil, ErrBadPayload
	}
	if data[4] != wantKind {
		return 0, 0, false, 0, nil, fmt.Errorf("core: payload kind %d, want %d", data[4], wantKind)
	}
	return uint(data[5]), data[6], data[7] == 1,
		int(binary.LittleEndian.Uint64(data[8:])), data[headerLen:], nil
}

// wordsSize is the encoded length of a word block: the count, then the
// words.
func wordsSize(words []uint64) int { return 8 + 8*len(words) }

func appendWords(buf []byte, words []uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(words)))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// readWordBlock splits a word block off data after checking its declared
// count against the bytes present. The block holds len(block)/8 words; the
// caller checks that count against the geometry before fillWords.
func readWordBlock(data []byte) (block, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, errors.New(errShortBuffer)
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	// Compare without multiplying so a huge declared count cannot wrap.
	if n > uint64(len(data))/8 {
		return nil, nil, errors.New(errShortBuffer)
	}
	return data[:n*8], data[n*8:], nil
}

// fillWords decodes a word block into dst, which holds exactly its words.
func fillWords(dst []uint64, block []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(block[i*8:])
	}
}

// BinarySize returns the length of the array's MarshalBinary encoding.
func (f *fixedArray) BinarySize() int { return headerLen + wordsSize(f.words) }

// appendBinary appends a kind payload of the storage to buf: the header,
// then the counter words.
func (f *fixedArray) appendBinary(buf []byte, kind byte) []byte {
	buf = appendHeader(buf, kind, f.bits, 0, false, f.width)
	return appendWords(buf, f.words)
}

// decodeFixedArray decodes a kind payload into new storage; the policy and
// compact header bytes are ignored.
func decodeFixedArray(data []byte, kind byte, minBits uint) (fixedArray, error) {
	bits, _, _, width, rest, err := readHeader(data, kind)
	if err != nil {
		return fixedArray{}, err
	}
	counters, _, err := readWordBlock(rest)
	if err != nil {
		return fixedArray{}, err
	}
	if bits < minBits || wordsForGeometry(width, bits) != len(counters)/8 {
		return fixedArray{}, ErrBadPayload
	}
	f := newFixedArray(width, bits, minBits, nil)
	fillWords(f.words, counters)
	return f, nil
}

// AppendBinary appends the array's MarshalBinary encoding to buf.
func (f *Fixed) AppendBinary(buf []byte) ([]byte, error) { return f.appendBinary(buf, kindFixed), nil }

// MarshalBinary encodes the array.
func (f *Fixed) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, f.BinarySize()))
}

// UnmarshalFixed decodes a Fixed array.
func UnmarshalFixed(data []byte) (*Fixed, error) {
	a, err := decodeFixedArray(data, kindFixed, 1)
	if err != nil {
		return nil, err
	}
	return newFixed(a), nil
}

// AppendBinary appends the array's MarshalBinary encoding to buf.
func (f *FixedSign) AppendBinary(buf []byte) ([]byte, error) {
	return f.appendBinary(buf, kindFixedSign), nil
}

// MarshalBinary encodes the array.
func (f *FixedSign) MarshalBinary() ([]byte, error) {
	return f.AppendBinary(make([]byte, 0, f.BinarySize()))
}

// UnmarshalFixedSign decodes a FixedSign array.
func UnmarshalFixedSign(data []byte) (*FixedSign, error) {
	a, err := decodeFixedArray(data, kindFixedSign, 2)
	if err != nil {
		return nil, err
	}
	return newFixedSign(a), nil
}

// layoutWords exposes the layout backing words for serialization.
func layoutWords(l layout) []uint64 {
	switch ly := l.(type) {
	case *bitLayout:
		return ly.bits.Words()
	case *compactLayout:
		return ly.words
	}
	panic("core: unknown layout type")
}

// BinarySize returns the length of the array's MarshalBinary encoding.
func (c *salsaArray) BinarySize() int {
	return headerLen + wordsSize(c.words) + wordsSize(layoutWords(c.lay))
}

// appendBinary appends a kind payload of the storage to buf: the header
// with the given policy byte, the counter words, then the layout words.
func (c *salsaArray) appendBinary(buf []byte, kind, policy byte) []byte {
	buf = appendHeader(buf, kind, c.s, policy, c.Compact(), c.width)
	buf = appendWords(buf, c.words)
	return appendWords(buf, layoutWords(c.lay))
}

// decodeSalsaArray decodes a kind payload into new storage. The geometry
// must pass salsaGeometry, the word counts must match it, and a layout
// that no merges could make is rejected with ErrBadPayload: simple-
// encoding merge bits that describe no layout, and a compact group whose
// number is not below a_g or decodes to a counter above the maximum level.
// It returns the header's policy byte for the caller's policy rule.
func decodeSalsaArray(data []byte, kind byte, minS uint) (salsaArray, byte, error) {
	s, policy, compact, width, rest, err := readHeader(data, kind)
	if err != nil {
		return salsaArray{}, 0, err
	}
	counters, rest, err := readWordBlock(rest)
	if err != nil {
		return salsaArray{}, 0, err
	}
	lay, _, err := readWordBlock(rest)
	if err != nil {
		return salsaArray{}, 0, err
	}
	if _, ok := salsaGeometry(width, s, minS, compact); !ok || wordsForGeometry(width, s) != len(counters)/8 {
		return salsaArray{}, 0, ErrBadPayload
	}
	c := newSalsaArray(width, s, minS, compact, nil, nil)
	layWords := layoutWords(c.lay)
	if len(lay)/8 != len(layWords) {
		return salsaArray{}, 0, ErrBadPayload
	}
	fillWords(c.words, counters)
	fillWords(layWords, lay)
	if c.blWords != nil && !validMergeBits(c.blWords, width, s) {
		return salsaArray{}, 0, ErrBadPayload
	}
	if cl, ok := c.lay.(*compactLayout); ok && !cl.valid() {
		return salsaArray{}, 0, ErrBadPayload
	}
	return c, policy, nil
}

// AppendBinary appends the array's MarshalBinary encoding to buf.
func (c *Salsa) AppendBinary(buf []byte) ([]byte, error) {
	return c.appendBinary(buf, kindSalsa, byte(c.policy)), nil
}

// MarshalBinary encodes the array including its merge layout.
func (c *Salsa) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalSalsa decodes a Salsa array. A layout no merges could make,
// simple or compact, is rejected with ErrBadPayload.
func UnmarshalSalsa(data []byte) (*Salsa, error) {
	a, policy, err := decodeSalsaArray(data, kindSalsa, 1)
	if err != nil {
		return nil, err
	}
	if policy > byte(MaxMerge) {
		return nil, ErrBadPayload
	}
	return &Salsa{salsaArray: a, policy: MergePolicy(policy)}, nil
}

// AppendBinary appends the array's MarshalBinary encoding to buf.
func (c *SalsaSign) AppendBinary(buf []byte) ([]byte, error) {
	return c.appendBinary(buf, kindSalsaSign, 0), nil
}

// MarshalBinary encodes the array including its merge layout.
func (c *SalsaSign) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalSalsaSign decodes a SalsaSign array, rejecting layouts as
// UnmarshalSalsa does; the policy byte is ignored.
func UnmarshalSalsaSign(data []byte) (*SalsaSign, error) {
	a, _, err := decodeSalsaArray(data, kindSalsaSign, 2)
	if err != nil {
		return nil, err
	}
	return &SalsaSign{a}, nil
}

// BinarySize returns the length of the array's MarshalBinary encoding.
func (t *Tango) BinarySize() int {
	return headerLen + wordsSize(t.words) + wordsSize(t.link.Words()) + 8
}

// AppendBinary appends the array's MarshalBinary encoding to buf: the
// counter cells, the merge-link bits, and the merge counter. A decoded
// Tango resumes from the exact cell/link state, so fine-grained merges
// (§IV) survive transport.
func (t *Tango) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendHeader(buf, kindTango, t.s, byte(t.policy), false, t.width)
	buf = appendWords(buf, t.words)
	buf = appendWords(buf, t.link.Words())
	return binary.LittleEndian.AppendUint64(buf, t.merges), nil
}

// MarshalBinary encodes the array; see AppendBinary.
func (t *Tango) MarshalBinary() ([]byte, error) {
	return t.AppendBinary(make([]byte, 0, t.BinarySize()))
}

// UnmarshalTango decodes a Tango array.
func UnmarshalTango(data []byte) (*Tango, error) {
	s, policy, compact, width, rest, err := readHeader(data, kindTango)
	if err != nil {
		return nil, err
	}
	counters, rest, err := readWordBlock(rest)
	if err != nil {
		return nil, err
	}
	links, rest, err := readWordBlock(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) < 8 {
		return nil, errors.New(errShortBuffer)
	}
	merges := binary.LittleEndian.Uint64(rest)
	if compact || s > 32 || policy > byte(MaxMerge) ||
		width <= 0 || width&(width-1) != 0 ||
		wordsForGeometry(width, s) != len(counters)/8 ||
		len(links)/8 != bitvec.WordsFor(width) {
		return nil, ErrBadPayload
	}
	t := NewTango(width, s, MergePolicy(policy))
	fillWords(t.words, counters)
	fillWords(t.link.Words(), links)
	t.merges = merges
	return t, nil
}
