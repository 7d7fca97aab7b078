package salsa

import (
	"fmt"
	"testing"
)

// sizedCodec is what every row and sketch codec offers: an exact length
// and the encoding it predicts.
type sizedCodec interface {
	BinarySize() int
	MarshalBinary() ([]byte, error)
}

func checkBinarySize(t *testing.T, what string, c sizedCodec) {
	t.Helper()
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.BinarySize(); n != len(b) {
		t.Errorf("%s: BinarySize %d, MarshalBinary wrote %d bytes", what, n, len(b))
	}
}

// checkBinarySizes asserts the predicted length at every layer of a leaf
// sketch whose envelope is envLen bytes: the envelope itself, the facade
// payload, the sketch payload and each row.
func checkBinarySizes(t *testing.T, s Sketch, envLen int) {
	t.Helper()
	var size int
	var payload []byte
	var err error
	switch x := s.(type) {
	case *CountMin:
		size = x.binarySize()
		payload, err = x.MarshalBinary()
		checkBinarySize(t, "sketch payload", x.sk)
		for i, r := range x.sk.Rows() {
			checkBinarySize(t, fmt.Sprintf("row %d (%T)", i, r), r.(sizedCodec))
		}
	case *CountSketch:
		size = x.binarySize()
		payload, err = x.MarshalBinary()
		checkBinarySize(t, "sketch payload", x.sk)
		for i, r := range x.sk.Rows() {
			checkBinarySize(t, fmt.Sprintf("row %d (%T)", i, r), r.(sizedCodec))
		}
	default:
		t.Fatalf("no size check for %T", s)
	}
	if err != nil {
		t.Fatal(err)
	}
	if size != len(payload) {
		t.Errorf("binarySize %d, MarshalBinary wrote %d bytes", size, len(payload))
	}
	if want := envHeaderLen + 8 + size; envLen != want {
		t.Errorf("envelope is %d bytes, want %d: the prefix plus one block of binarySize", envLen, want)
	}
}
