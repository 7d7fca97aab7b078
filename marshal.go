package salsa

import (
	"encoding/binary"
	"errors"

	"salsa/internal/sketch"
)

// Sketch serialization: a small options header followed by the sketch
// payload (rows, seeds, merge layouts). A decoded sketch is fully
// operational and — since seeds travel with it — can Merge/Subtract with
// sketches from other processes, the paper's distributed use case (§V).

const optionsHeaderLen = 4 + 8*7

var facadeMagic = uint32(0x5a15afab)

// ErrBadPayload is returned when decoding bytes that are not a sketch.
var ErrBadPayload = errors.New("salsa: not a sketch payload")

func appendOptions(buf []byte, o Options) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, facadeMagic)
	for _, v := range []uint64{
		uint64(o.Depth), uint64(o.Width), uint64(o.Mode), uint64(o.CounterBits),
		uint64(o.Merge), boolU64(o.CompactEncoding), o.Seed,
	} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func readOptions(data []byte) (Options, []byte, error) {
	if len(data) < optionsHeaderLen {
		return Options{}, nil, ErrBadPayload
	}
	if binary.LittleEndian.Uint32(data) != facadeMagic {
		return Options{}, nil, ErrBadPayload
	}
	f := func(i int) uint64 { return binary.LittleEndian.Uint64(data[4+8*i:]) }
	o := Options{
		Depth:           int(f(0)),
		Width:           int(f(1)),
		Mode:            Mode(f(2)),
		CounterBits:     uint(f(3)),
		Merge:           Merge(f(4)),
		CompactEncoding: f(5) == 1,
		Seed:            f(6),
	}
	return o, data[optionsHeaderLen:], nil
}

// binarySize returns the length of the sketch's MarshalBinary encoding.
func (c *CountMin) binarySize() int { return optionsHeaderLen + c.sk.BinarySize() }

// appendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CountMin) appendBinary(buf []byte) ([]byte, error) {
	return c.sk.AppendBinary(appendOptions(buf, c.opt))
}

// MarshalBinary encodes the sketch for storage or transport.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	return c.appendBinary(make([]byte, 0, c.binarySize()))
}

// UnmarshalCountMin decodes a CountMin (or ConservativeUpdate) sketch.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.UnmarshalCMS(rest)
	if err != nil {
		return nil, err
	}
	return &CountMin{sk: sk, opt: opt, conservative: sk.Conservative()}, nil
}

// binarySize returns the length of the sketch's MarshalBinary encoding.
func (c *CountSketch) binarySize() int { return optionsHeaderLen + c.sk.BinarySize() }

// appendBinary appends the sketch's MarshalBinary encoding to buf.
func (c *CountSketch) appendBinary(buf []byte) ([]byte, error) {
	return c.sk.AppendBinary(appendOptions(buf, c.opt))
}

// MarshalBinary encodes the sketch for storage or transport.
func (c *CountSketch) MarshalBinary() ([]byte, error) {
	return c.appendBinary(make([]byte, 0, c.binarySize()))
}

// UnmarshalCountSketch decodes a CountSketch.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.UnmarshalCountSketch(rest)
	if err != nil {
		return nil, err
	}
	return &CountSketch{sk: sk, opt: opt}, nil
}
