package salsa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"salsa/internal/core"
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
	// Accept only a header appendOptions writes back byte for byte: a
	// CompactEncoding word other than 0 or 1, or (where int and uint are 32
	// bits) a word its field truncates, would re-marshal to other bytes.
	var again [optionsHeaderLen]byte
	if !bytes.Equal(appendOptions(again[:0], o), data[:optionsHeaderLen]) {
		return Options{}, nil, ErrBadPayload
	}
	return o, data[optionsHeaderLen:], nil
}

// checkHeader rejects an options header that Build could not have written
// for the sketch decoded after it: opt must pass the rules of kind, carry
// the merge policy Build fills in, and name the sketch's depth and width
// and the seed its row seeds derive from (seeded). checkRow then matches
// each row. A header taken on trust would report Options its rows do not
// have, and MergeInto, SubtractInto and CopyInto, which compare Options,
// would hand such a sketch to row kernels that panic on it. Both checks
// allocate only to report a mismatch, since ApplyPush decodes every push.
func checkHeader(opt Options, kind sketchKind, depth, width int, seeded bool) error {
	if err := opt.validateFor(kind); err != nil {
		return err
	}
	switch {
	case opt.Depth != depth:
		return headerErrf("Depth %d, the payload has %d rows", opt.Depth, depth)
	case opt.Width != width:
		return headerErrf("Width %d, the rows are %d wide", opt.Width, width)
	case opt.Merge == MergeDefault:
		return headerErrf("no merge policy")
	case !seeded:
		return headerErrf("Seed %d, the row seeds derive from another", opt.Seed)
	}
	return nil
}

// checkRow rejects a header that disagrees with row i's backend: its mode,
// counter size, merge policy (MergeDefault for rows that record none) and
// merge encoding.
func checkRow(opt Options, i int, mode Mode, bits uint, merge Merge, compact bool) error {
	switch {
	case opt.Mode != mode:
		return headerErrf("%v, row %d is %v", opt.Mode, i, mode)
	case opt.CounterBits != bits:
		return headerErrf("CounterBits %d, row %d has %d", opt.CounterBits, i, bits)
	case merge != MergeDefault && opt.Merge != merge:
		return headerErrf("Merge(%d), row %d merges by Merge(%d)", int(opt.Merge), i, int(merge))
	case opt.CompactEncoding != compact:
		return headerErrf("CompactEncoding %v, row %d has %v", opt.CompactEncoding, i, compact)
	}
	return nil
}

func headerErrf(format string, args ...any) error {
	return fmt.Errorf("%w: options header says %s", ErrBadPayload, fmt.Sprintf(format, args...))
}

// mergeOf is the Merge a row's merge policy came from.
func mergeOf(p core.MergePolicy) Merge {
	if p == core.MaxMerge {
		return MergeMax
	}
	return MergeSum
}

// checkCountMinHeader is checkHeader and checkRow over a decoded CMS.
func checkCountMinHeader(opt Options, sk *sketch.CMS) error {
	kind := kindCountMin
	if sk.Conservative() {
		kind = kindConservative
	}
	if err := checkHeader(opt, kind, sk.Depth(), sk.Width(), sk.SeededBy(opt.Seed)); err != nil {
		return err
	}
	for i, r := range sk.Rows() {
		var err error
		switch row := r.(type) {
		case *core.Fixed:
			err = checkRow(opt, i, ModeBaseline, row.CounterBits(), MergeDefault, false)
		case *core.Salsa:
			err = checkRow(opt, i, ModeSALSA, row.BaseBits(), mergeOf(row.Policy()), row.Compact())
		case *core.Tango:
			err = checkRow(opt, i, ModeTango, row.BaseBits(), mergeOf(row.Policy()), false)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkCountSketchHeader is checkHeader and checkRow over a decoded Count
// Sketch, whose signed rows always merge by sum.
func checkCountSketchHeader(opt Options, sk *sketch.CountSketch) error {
	if err := checkHeader(opt, kindCountSketch, sk.Depth(), sk.Width(), sk.SeededBy(opt.Seed)); err != nil {
		return err
	}
	for i, r := range sk.Rows() {
		var err error
		switch row := r.(type) {
		case *core.FixedSign:
			err = checkRow(opt, i, ModeBaseline, row.CounterBits(), MergeSum, false)
		case *core.SalsaSign:
			err = checkRow(opt, i, ModeSALSA, row.BaseBits(), MergeSum, row.Compact())
		}
		if err != nil {
			return err
		}
	}
	return nil
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

// UnmarshalCountMin decodes a CountMin (or ConservativeUpdate) sketch. It
// rejects an options header that disagrees with the rows after it.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.UnmarshalCMS(rest)
	if err != nil {
		return nil, err
	}
	if err := checkCountMinHeader(opt, sk); err != nil {
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

// UnmarshalCountSketch decodes a CountSketch. It rejects an options header
// that disagrees with the rows after it.
func UnmarshalCountSketch(data []byte) (*CountSketch, error) {
	opt, rest, err := readOptions(data)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.UnmarshalCountSketch(rest)
	if err != nil {
		return nil, err
	}
	if err := checkCountSketchHeader(opt, sk); err != nil {
		return nil, err
	}
	return &CountSketch{sk: sk, opt: opt}, nil
}
