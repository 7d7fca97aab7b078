package salsa

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"salsa/internal/sketch"
)

// TestUnmarshalRejectsNonCanonicalHeaders: an envelope whose bytes
// Marshal never writes must not decode, or Marshal(Unmarshal(x)) would
// differ from x. Each case rewrites one header field of a CountMin, Count
// Sketch or windowed envelope to a value its decoder used to read as
// another.
func TestUnmarshalRejectsNonCanonicalHeaders(t *testing.T) {
	opt := Options{Width: 256, Merge: MergeSum, Seed: 3}
	build := func(spec Spec) []byte {
		sk := MustBuild(spec)
		sk.UpdateBatch([]uint64{1, 2, 3, 3, 7}, 5)
		env, err := Marshal(sk)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	cm, cs := build(CountMinOf(opt)), build(CountSketchOf(opt))
	wcm, wcs := build(Windowed(CountMinOf(opt), 4, 100)), build(Windowed(CountSketchOf(opt), 4, 100))
	// A leaf envelope is magic, version, tag, the block length, then the
	// options header (magic and seven words) and the sketch payload.
	const block = 6 + 8
	const sketchAt = block + optionsHeaderLen
	word := func(i int) int { return block + 4 + 8*i }
	set := func(env []byte, at int, b ...byte) []byte {
		env = bytes.Clone(env)
		copy(env[at:], b)
		return env
	}
	put := func(env []byte, at int, v uint64) []byte {
		env = bytes.Clone(env)
		binary.LittleEndian.PutUint64(env[at:], v)
		return env
	}
	trailing := func(env []byte) []byte {
		env = append(bytes.Clone(env), 0, 0)
		n := binary.LittleEndian.Uint64(env[6:])
		binary.LittleEndian.PutUint64(env[6:], n+2)
		return env
	}
	depth := binary.LittleEndian.Uint64(cm[word(0):])
	for name, env := range map[string][]byte{
		"countmin flag byte 2":          set(cm, sketchAt+5, 2),
		"countsketch flag byte 1":       set(cs, sketchAt+5, 1),
		"countsketch flag byte 2":       set(cs, sketchAt+5, 2),
		"countmin trailing bytes":       trailing(cm),
		"countsketch trailing bytes":    trailing(cs),
		"CompactEncoding word 2":        put(cm, word(5), 2),
		"countsketch CompactEncoding 2": put(cs, word(5), 2),
		"windowed countmin ring byte 2": set(wcm, 6+optionsHeaderLen, 2),
		"windowed cs ring byte 2":       set(wcs, 6+optionsHeaderLen, 2),
	} {
		if _, err := Unmarshal(env); !errors.Is(err, ErrBadPayload) && !errors.Is(err, sketch.ErrBadSketchPayload) {
			t.Errorf("%s: err = %v, want ErrBadPayload or the sketch payload error", name, err)
		}
	}
	// A header word raised by 2^32 reads as the original where int and uint
	// are 32 bits (GOARCH=386); elsewhere the options checks reject it.
	for name, env := range map[string][]byte{
		"Depth word + 2^32":       put(cm, word(0), depth+1<<32),
		"Width word + 2^32":       put(cm, word(1), 256+1<<32),
		"CounterBits word + 2^32": put(cm, word(3), binary.LittleEndian.Uint64(cm[word(3):])+1<<32),
	} {
		if _, err := Unmarshal(env); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
