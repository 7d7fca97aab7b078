// Package envtagtest is the golden fixture for the envelopetag analyzer:
// a miniature universal-envelope codec with one healthy tag and one
// broken tag per failure leg.
package envtagtest

import "errors"

const (
	tagGood    byte = 1 // marshaled, decoded, seeded: healthy
	tagNoWrite byte = 2 // want `tag constant tagNoWrite is missing from an envHeader\(...\) marshal call`
	tagNoRead  byte = 3 // want `tag constant tagNoRead is missing from the Unmarshal tag switch`
	tagNoSeed  byte = 4 // want `tag constant tagNoSeed is missing from the envelopeTagSeeds fuzz-coverage map`
	// A duplicated value cannot be seeded either (the map key would collide),
	// so the duplicate line carries all three findings.
	tagZDup byte = 1 // want `tag constant tagZDup duplicates the value 1 of tagGood` `tag constant tagZDup is missing from the Unmarshal tag switch` `tag constant tagZDup is missing from the envelopeTagSeeds fuzz-coverage map`
)

// envelopeTagSeeds is the fuzz-coverage ledger the analyzer checks.
var envelopeTagSeeds = map[byte]string{
	tagGood:    "good",
	tagNoWrite: "no-write",
	tagNoRead:  "no-read",
}

// envHeader takes the payload size after the tag, as the real codec's
// does: the extra argument does not hide the tag from the marshal leg.
func envHeader(tag byte, size int) []byte { return append(make([]byte, 0, 2+size), 's', tag) }

func marshalGood() []byte   { return envHeader(tagGood, 8) }
func marshalNoRead() []byte { return envHeader(tagNoRead, 0) }
func marshalNoSeed() []byte { return envHeader(tagNoSeed, 0) }
func marshalDup() []byte    { return envHeader(tagZDup, 0) }

func payload(data []byte) byte {
	return data[1]
}

// Unmarshal dispatches on the envelope tag; raw literal cases are banned
// so a tag byte cannot be claimed without declaring its constant.
func Unmarshal(data []byte) (byte, error) {
	switch payload(data) {
	case tagGood:
		return tagGood, nil
	case tagNoWrite:
		return tagNoWrite, nil
	case tagNoSeed:
		return tagNoSeed, nil
	case 9: // want `raw literal case in the Unmarshal tag switch; declare a tag constant for it`
		return 9, nil
	}
	return 0, errors.New("envtagtest: unknown tag")
}

// unmarshalHelper proves helper-switch coverage: tag dispatch inside
// unmarshal* helpers counts as the decode leg too.
func unmarshalHelper(tag byte) bool {
	switch tag {
	case tagGood:
		return true
	}
	return false
}
