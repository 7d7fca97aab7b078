package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"salsa/internal/core"
)

// Binary serialization for whole sketches: geometry, hash seeds, and the
// rows' own payloads. Because the seeds travel with the sketch, a decoded
// sketch can be merged or subtracted with the original's peers.
//
// A payload is magic(4) | kind(1) | flag(1) | depth(8) | seeds | rows,
// where the seeds are the core's seed words and each row is its kind byte
// and a length-prefixed block holding the row's own encoding. The core
// frames it; each family supplies its kind byte, flag and row-kind table.

const (
	sketchMagic   = uint32(0x5a15a100)
	rowKindFixed  = byte(1)
	rowKindSalsa  = byte(2)
	rowKindTango  = byte(3)
	csKindFixed   = byte(1)
	csKindSalsa   = byte(2)
	kindCMSHeader = byte(10)
	kindCSHeader  = byte(11)

	// sketchHeaderLen is the payload prefix: magic, kind, flag byte, depth.
	sketchHeaderLen = 4 + 1 + 1 + 8
)

// ErrBadSketchPayload is returned for payloads that are not sketches.
var ErrBadSketchPayload = errors.New("sketch: not a sketch payload")

// maxMarshalDepth bounds the decoded row count; no sketch configuration
// comes close, and it keeps hostile payloads from forcing allocations.
const maxMarshalDepth = 1024

func readBlock(data []byte) (block, rest []byte, err error) {
	if len(data) < 8 {
		return nil, nil, ErrBadSketchPayload
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if uint64(len(data)) < n {
		return nil, nil, ErrBadSketchPayload
	}
	return data[:n], data[n:], nil
}

// BinarySize returns the length of the sketch's MarshalBinary encoding.
func (s *sketchCore[R]) BinarySize() int {
	n := sketchHeaderLen + 8*len(s.seeds)
	for _, r := range s.rows {
		n += 1 + 8 + r.BinarySize()
	}
	return n
}

// appendPayload appends the payload with the family's kind and flag bytes,
// tagging each row with its rowKind and encoding it in place.
func (s *sketchCore[R]) appendPayload(buf []byte, kind, flag byte, rowKind func(R) byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = append(buf, kind, flag)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.rows)))
	for _, v := range s.seeds {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, r := range s.rows {
		k := rowKind(r)
		if k == 0 {
			return nil, fmt.Errorf("sketch: cannot marshal row type %T", r)
		}
		buf = append(buf, k)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.BinarySize()))
		var err error
		if buf, err = r.AppendBinary(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodePayload decodes a payload of the family's kind, with a flag byte
// of at most maxFlag, seedsPerRow seed words per row and each row decoded
// by decodeRow from its kind byte, and returns the core and the flag byte.
// It accepts only what appendPayload writes: the rows must end the payload.
func decodePayload[R row](data []byte, kind, maxFlag byte, seedsPerRow uint64, decodeRow func(kind byte, block []byte) (R, error)) (s sketchCore[R], flag byte, err error) {
	if len(data) < sketchHeaderLen || binary.LittleEndian.Uint32(data) != sketchMagic || data[4] != kind {
		return s, 0, ErrBadSketchPayload
	}
	flag, d := data[5], binary.LittleEndian.Uint64(data[6:])
	data = data[sketchHeaderLen:]
	if flag > maxFlag || d == 0 || d > maxMarshalDepth || uint64(len(data)) < 8*seedsPerRow*d {
		return s, 0, ErrBadSketchPayload
	}
	seeds := make([]uint64, seedsPerRow*d)
	for i := range seeds {
		seeds[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	data = data[8*len(seeds):]
	rows := make([]R, d)
	for i := range rows {
		if len(data) < 1 {
			return s, 0, ErrBadSketchPayload
		}
		block, rest, err := readBlock(data[1:])
		if err != nil {
			return s, 0, err
		}
		if rows[i], err = decodeRow(data[0], block); err != nil {
			return s, 0, err
		}
		data = rest
	}
	s, ok := newSketchCore(rows, seeds)
	if !ok || len(data) != 0 {
		return s, 0, ErrBadSketchPayload
	}
	return s, flag, nil
}

// The CMS row-kind table, both ways.

func cmsRowKind(r Row) byte {
	switch r.(type) {
	case *core.Fixed:
		return rowKindFixed
	case *core.Salsa:
		return rowKindSalsa
	case *core.Tango:
		return rowKindTango
	}
	return 0
}

func decodeCMSRow(kind byte, block []byte) (Row, error) {
	switch kind {
	case rowKindFixed:
		return core.UnmarshalFixed(block)
	case rowKindSalsa:
		return core.UnmarshalSalsa(block)
	case rowKindTango:
		return core.UnmarshalTango(block)
	}
	return nil, fmt.Errorf("sketch: unknown row kind %d", kind)
}

// The Count Sketch row-kind table, both ways.

func csRowKind(r SignedRow) byte {
	switch r.(type) {
	case *core.FixedSign:
		return csKindFixed
	case *core.SalsaSign:
		return csKindSalsa
	}
	return 0
}

func decodeCSRow(kind byte, block []byte) (SignedRow, error) {
	switch kind {
	case csKindFixed:
		return core.UnmarshalFixedSign(block)
	case csKindSalsa:
		return core.UnmarshalSalsaSign(block)
	}
	return nil, fmt.Errorf("sketch: unknown row kind %d", kind)
}

// CompatibleWith reports (as an error) whether other can merge with c:
// identical depth, width, hash seeds, update rule, and merge-compatible
// concrete row types. Decoders use it to validate that sketches which will
// be merged — window buckets against their ring's configuration — cannot
// make MergeFrom panic on a hostile payload.
func (c *CMS) CompatibleWith(other *CMS) error {
	if c.conservative != other.conservative {
		return errors.New("sketch: conservative flag mismatch")
	}
	return c.compatible(&other.sketchCore, func(a, b Row) bool {
		return sameRow[*core.Fixed](a, b) || sameRow[*core.Salsa](a, b) || sameRow[*core.Tango](a, b)
	})
}

// CompatibleWith is the Count Sketch counterpart of (*CMS).CompatibleWith.
func (c *CountSketch) CompatibleWith(other *CountSketch) error {
	return c.compatible(&other.sketchCore, func(a, b SignedRow) bool {
		return sameRow[*core.FixedSign](a, b) || sameRow[*core.SalsaSign](a, b)
	})
}

// AppendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CMS) AppendBinary(buf []byte) ([]byte, error) {
	var conservative byte
	if c.conservative {
		conservative = 1
	}
	return c.appendPayload(buf, kindCMSHeader, conservative, cmsRowKind)
}

// MarshalBinary encodes the sketch, rows included.
func (c *CMS) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalCMS decodes a CMS (or CUS) produced by MarshalBinary.
func UnmarshalCMS(data []byte) (*CMS, error) {
	s, flag, err := decodePayload(data, kindCMSHeader, 1, 1, decodeCMSRow)
	if err != nil {
		return nil, err
	}
	return newCMS(s, flag == 1), nil
}

// AppendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CountSketch) AppendBinary(buf []byte) ([]byte, error) {
	return c.appendPayload(buf, kindCSHeader, 0, csRowKind)
}

// MarshalBinary encodes the Count Sketch, rows included.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalCountSketch decodes a Count Sketch produced by MarshalBinary.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	s, _, err := decodePayload(data, kindCSHeader, 0, 2, decodeCSRow)
	if err != nil {
		return nil, err
	}
	return newCountSketch(s), nil
}
