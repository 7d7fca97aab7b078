package sketch

import (
	"encoding/binary"
	"errors"
	"fmt"

	"salsa/internal/core"
	"salsa/internal/hashing"
)

// Binary serialization for whole sketches: geometry, hash seeds, and the
// rows' own payloads. Because the seeds travel with the sketch, a decoded
// sketch can be merged or subtracted with the original's peers.

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

// validRowWidths reports whether all widths are equal and a power of two.
func validRowWidths(widths []int) bool {
	if len(widths) == 0 {
		return false
	}
	w := widths[0]
	if w <= 0 || w&(w-1) != 0 {
		return false
	}
	for _, v := range widths[1:] {
		if v != w {
			return false
		}
	}
	return true
}

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

// CompatibleWith reports (as an error) whether other can merge with c:
// identical depth, width, hash seeds, update rule, and merge-compatible
// concrete row types. Decoders use it to validate that sketches which will
// be merged — window buckets against their ring's configuration — cannot
// make MergeFrom panic on a hostile payload.
func (c *CMS) CompatibleWith(other *CMS) error {
	if len(c.rows) != len(other.rows) {
		return fmt.Errorf("sketch: depth %d vs %d", len(c.rows), len(other.rows))
	}
	if c.mask != other.mask {
		return fmt.Errorf("sketch: width %d vs %d", c.mask+1, other.mask+1)
	}
	if c.conservative != other.conservative {
		return errors.New("sketch: conservative flag mismatch")
	}
	for i := range c.seeds {
		if c.seeds[i] != other.seeds[i] {
			return fmt.Errorf("sketch: row %d seed mismatch", i)
		}
	}
	for i, r := range c.rows {
		ok := false
		switch row := r.(type) {
		case *core.Fixed:
			o, isT := other.rows[i].(*core.Fixed)
			ok = isT && row.SameGeometry(o)
		case *core.Salsa:
			o, isT := other.rows[i].(*core.Salsa)
			ok = isT && row.SameGeometry(o)
		case *core.Tango:
			o, isT := other.rows[i].(*core.Tango)
			ok = isT && row.SameGeometry(o)
		}
		if !ok {
			return fmt.Errorf("sketch: row %d type/geometry mismatch (%T vs %T)", i, r, other.rows[i])
		}
	}
	return nil
}

// CompatibleWith is the Count Sketch counterpart of (*CMS).CompatibleWith.
func (c *CountSketch) CompatibleWith(other *CountSketch) error {
	if len(c.rows) != len(other.rows) {
		return fmt.Errorf("sketch: depth %d vs %d", len(c.rows), len(other.rows))
	}
	if c.mask != other.mask {
		return fmt.Errorf("sketch: width %d vs %d", c.mask+1, other.mask+1)
	}
	for i := range c.idxSeeds {
		if c.idxSeeds[i] != other.idxSeeds[i] || c.signSeeds[i] != other.signSeeds[i] {
			return fmt.Errorf("sketch: row %d seed mismatch", i)
		}
	}
	for i, r := range c.rows {
		ok := false
		switch row := r.(type) {
		case *core.FixedSign:
			o, isT := other.rows[i].(*core.FixedSign)
			ok = isT && row.SameGeometry(o)
		case *core.SalsaSign:
			o, isT := other.rows[i].(*core.SalsaSign)
			ok = isT && row.SameGeometry(o)
		}
		if !ok {
			return fmt.Errorf("sketch: row %d type/geometry mismatch (%T vs %T)", i, r, other.rows[i])
		}
	}
	return nil
}

// SeededBy reports whether c hashes with the row seeds NewCMS derives from
// seed; decoders use it to check a declared seed against the seeds a
// payload carries.
func (c *CMS) SeededBy(seed uint64) bool { return seededBy(seed, c.seeds, nil) }

// SeededBy reports whether c hashes with the index and sign seeds
// NewCountSketch derives from seed.
func (c *CountSketch) SeededBy(seed uint64) bool { return seededBy(seed, c.idxSeeds, c.signSeeds) }

// seededBy reports whether a followed by b is the start of the
// hashing.Seeds sequence of master.
func seededBy(master uint64, a, b []uint64) bool {
	state := master
	for _, seeds := range [2][]uint64{a, b} {
		for _, s := range seeds {
			if hashing.SplitMix64(&state) != s {
				return false
			}
		}
	}
	return true
}

// rowCodec is the sized encoding every core row type provides.
type rowCodec interface {
	BinarySize() int
	AppendBinary(buf []byte) ([]byte, error)
}

// cmsRow returns the wire kind and the codec of a CMS row.
func cmsRow(r Row) (byte, rowCodec, error) {
	switch row := r.(type) {
	case *core.Fixed:
		return rowKindFixed, row, nil
	case *core.Salsa:
		return rowKindSalsa, row, nil
	case *core.Tango:
		return rowKindTango, row, nil
	}
	return 0, nil, fmt.Errorf("sketch: cannot marshal row type %T", r)
}

// csRow returns the wire kind and the codec of a Count Sketch row.
func csRow(r SignedRow) (byte, rowCodec, error) {
	switch row := r.(type) {
	case *core.FixedSign:
		return csKindFixed, row, nil
	case *core.SalsaSign:
		return csKindSalsa, row, nil
	}
	return 0, nil, fmt.Errorf("sketch: cannot marshal row type %T", r)
}

// appendRow appends a row as its kind byte and a length-prefixed block,
// encoding the row in place.
func appendRow(buf []byte, kind byte, row rowCodec) ([]byte, error) {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(row.BinarySize()))
	return row.AppendBinary(buf)
}

func appendSeeds(buf []byte, seeds []uint64) []byte {
	for _, s := range seeds {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

// BinarySize returns the length of the sketch's MarshalBinary encoding.
func (c *CMS) BinarySize() int {
	n := sketchHeaderLen + 8*len(c.seeds)
	for _, r := range c.rows {
		if _, row, err := cmsRow(r); err == nil {
			n += 1 + 8 + row.BinarySize()
		}
	}
	return n
}

// AppendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CMS) AppendBinary(buf []byte) ([]byte, error) {
	var conservative byte
	if c.conservative {
		conservative = 1
	}
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = append(buf, kindCMSHeader, conservative)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.rows)))
	buf = appendSeeds(buf, c.seeds)
	for _, r := range c.rows {
		kind, row, err := cmsRow(r)
		if err != nil {
			return nil, err
		}
		if buf, err = appendRow(buf, kind, row); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// MarshalBinary encodes the sketch, rows included.
func (c *CMS) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalCMS decodes a CMS (or CUS) produced by MarshalBinary.
func UnmarshalCMS(data []byte) (*CMS, error) {
	if len(data) < 4+1+1+8 {
		return nil, ErrBadSketchPayload
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic || data[4] != kindCMSHeader {
		return nil, ErrBadSketchPayload
	}
	conservative := data[5] == 1
	d := int(binary.LittleEndian.Uint64(data[6:]))
	data = data[14:]
	if d <= 0 || d > maxMarshalDepth || len(data) < d*8 {
		return nil, ErrBadSketchPayload
	}
	seeds := data[:d*8]
	data = data[d*8:]
	rows := make([]Row, d)
	for i := 0; i < d; i++ {
		if len(data) < 1 {
			return nil, ErrBadSketchPayload
		}
		kind := data[0]
		block, rest, err := readBlock(data[1:])
		if err != nil {
			return nil, err
		}
		data = rest
		switch kind {
		case rowKindFixed:
			rows[i], err = core.UnmarshalFixed(block)
		case rowKindSalsa:
			rows[i], err = core.UnmarshalSalsa(block)
		case rowKindTango:
			rows[i], err = core.UnmarshalTango(block)
		default:
			return nil, fmt.Errorf("sketch: unknown row kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
	}
	widths := make([]int, d)
	for i, r := range rows {
		widths[i] = r.Width()
	}
	if !validRowWidths(widths) {
		return nil, ErrBadSketchPayload
	}
	c := newCMS(rows, 0, conservative)
	for i := range c.seeds {
		c.seeds[i] = binary.LittleEndian.Uint64(seeds[i*8:])
	}
	return c, nil
}

// BinarySize returns the length of the sketch's MarshalBinary encoding.
func (c *CountSketch) BinarySize() int {
	n := sketchHeaderLen + 8*(len(c.idxSeeds)+len(c.signSeeds))
	for _, r := range c.rows {
		if _, row, err := csRow(r); err == nil {
			n += 1 + 8 + row.BinarySize()
		}
	}
	return n
}

// AppendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CountSketch) AppendBinary(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = append(buf, kindCSHeader, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.rows)))
	buf = appendSeeds(buf, c.idxSeeds)
	buf = appendSeeds(buf, c.signSeeds)
	for _, r := range c.rows {
		kind, row, err := csRow(r)
		if err != nil {
			return nil, err
		}
		if buf, err = appendRow(buf, kind, row); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// MarshalBinary encodes the Count Sketch, rows included.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return c.AppendBinary(make([]byte, 0, c.BinarySize()))
}

// UnmarshalCountSketch decodes a Count Sketch produced by MarshalBinary.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	if len(data) < 4+2+8 {
		return nil, ErrBadSketchPayload
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic || data[4] != kindCSHeader {
		return nil, ErrBadSketchPayload
	}
	d := int(binary.LittleEndian.Uint64(data[6:]))
	data = data[14:]
	if d <= 0 || d > maxMarshalDepth || len(data) < 2*d*8 {
		return nil, ErrBadSketchPayload
	}
	idxSeeds := make([]uint64, d)
	signSeeds := make([]uint64, d)
	for i := range idxSeeds {
		idxSeeds[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	data = data[d*8:]
	for i := range signSeeds {
		signSeeds[i] = binary.LittleEndian.Uint64(data[i*8:])
	}
	data = data[d*8:]
	rows := make([]SignedRow, d)
	var width int
	for i := 0; i < d; i++ {
		if len(data) < 1 {
			return nil, ErrBadSketchPayload
		}
		kind := data[0]
		block, rest, err := readBlock(data[1:])
		if err != nil {
			return nil, err
		}
		data = rest
		switch kind {
		case csKindFixed:
			rows[i], err = core.UnmarshalFixedSign(block)
		case csKindSalsa:
			rows[i], err = core.UnmarshalSalsaSign(block)
		default:
			return nil, fmt.Errorf("sketch: unknown row kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
		width = rows[i].Width()
	}
	widths := make([]int, d)
	for i, r := range rows {
		widths[i] = r.Width()
	}
	if !validRowWidths(widths) {
		return nil, ErrBadSketchPayload
	}
	return newCountSketch(rows, idxSeeds, signSeeds, uint64(width-1)), nil
}
