package salsad

import (
	"bytes"
	"math/rand"
	"testing"
)

// code codes runs and then lits as Encode codes an envelope's sections,
// in the shape of the flate writer it replaced, which could fail;
// FuzzInflateMatchesFlate calls it.
func (e *encoder) code(runs, lits []byte) ([]byte, error) {
	return e.w.code(runs, lits), nil
}

// FuzzWriterMatchesFlate holds the writer to compress/flate on any two
// sections: the stream it writes must be the one a new flate writer at
// HuffmanOnly writes for Write(runs), Flush, Write(lits), Close. The seeds
// cover a section over maxBlockBytes, which takes two blocks; an
// incompressible section, which is stored; counts whose Huffman code is
// deeper than 15 bits, which the length limit reshapes; one or two
// symbols, whose codes are one bit; and empty sections.
func FuzzWriterMatchesFlate(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, maxBlockBytes+1000)
	for i := range long {
		long[i] = byte(rng.Intn(1 + rng.Intn(256)))
	}
	random := make([]byte, 2000)
	rng.Read(random)
	// Byte k appears fib(k+1) times, for a code 21 bits deep unlimited.
	var deep []byte
	for k, a, b := 0, 1, 1; k < 22; k, a, b = k+1, b, a+b {
		deep = append(deep, bytes.Repeat([]byte{byte(k)}, a)...)
	}
	f.Add(long, random)
	f.Add(random, long)
	f.Add(deep, []byte{7, 7, 7, 7})
	f.Add([]byte{1, 2, 1, 2}, []byte(nil))
	f.Add([]byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, runs, lits []byte) {
		// The pooled encoder's writer still holds the tables of whatever
		// it coded last.
		e := encoders.Get().(*encoder)
		defer encoders.Put(e)
		if got, want := e.w.code(runs, lits), huffmanSections(t, runs, lits); !bytes.Equal(got, want) {
			t.Fatalf("sections of %d and %d bytes: the writer wrote %d bytes, compress/flate %d", len(runs), len(lits), len(got), len(want))
		}
	})
}
