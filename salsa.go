// Package salsa is a Go implementation of SALSA (Self-Adjusting Lean
// Streaming Analytics, ICDE 2021): sketching with dynamically re-sized
// counters. Counters start small (8 bits by default) and merge with their
// neighbors when they overflow, so a given memory budget holds far more
// counters without limiting the counting range.
//
// The package offers the three classic frequency sketches — CountMin,
// ConservativeUpdate and CountSketch — over three counter backends
// selectable per sketch: the fixed-width Baseline, SALSA, and the
// fine-grained Tango variant. On top of them it provides the paper's
// derived machinery: heavy-hitter/top-k tracking, Linear Counting distinct
// estimation, change detection via sketch subtraction, the UnivMon
// universal sketch, the Cold Filter framework, and the AEE sampling
// estimators with SALSA's merge-or-downsample overflow policy.
//
// Sketch topologies are described by a small composable Spec algebra and
// realized by Build: the sketch kind (CountMinOf, ConservativeOf,
// CountSketchOf, MonitorOf, TopKOf) is one choice, and the deployment
// shape is layered on with the Windowed and ShardedBy decorators — every
// orthogonal combination is spelled by composition, not by a dedicated
// constructor. Quick start:
//
//	s, err := salsa.Build(salsa.CountMinOf(salsa.Options{Width: 1 << 16}))
//	if err != nil { ... }
//	cm := s.(*salsa.CountMin)
//	cm.Increment(item)
//	estimate := cm.Query(item)
//
// Time-scoped queries — "heavy hitters in the last minute", "volume over
// the last N packets" — are served by the Windowed decorator (a ring of
// bucket sketches rotated by item count or caller-driven ticks, answering
// from an incrementally-maintained merge of the live buckets), and
// multi-goroutine ingestion by the ShardedBy decorator (hash-routed,
// independently-locked shard sketches); the two compose:
//
//	s, err := salsa.Build(salsa.ShardedBy(
//		salsa.Windowed(salsa.CountMinOf(opt), 4, 1<<20), 8))
//
// Every topology the algebra can express serializes through the universal
// envelope codec Marshal/Unmarshal and is fully operational — and
// mergeable with its seed-sharing peers — after decoding, the paper's
// distributed use case (§V) at full generality.
//
// All sketches are deterministic given Options.Seed and are not safe for
// concurrent mutation unless wrapped in ShardedBy; use the batch APIs
// (UpdateBatch/IncrementBatch/QueryBatch) for bulk streams.
//
//salsa:typederrors
package salsa

import (
	"fmt"

	"salsa/internal/core"
	"salsa/internal/hashing"
)

// Sketch is the ingestion surface shared by the package's frequency
// sketches and trackers; it is the backend constraint of the Sharded
// concurrency layer. UpdateBatch must be equivalent to calling Update on
// each item in slice order.
type Sketch interface {
	// Update adds count occurrences of item.
	Update(item uint64, count int64)
	// UpdateBatch adds count occurrences of every item, in order.
	UpdateBatch(items []uint64, count int64)
	// MemoryBits returns the backend footprint in bits.
	MemoryBits() int
}

// Compile-time checks that every leaf backend satisfies Sketch.
var (
	_ Sketch = (*CountMin)(nil)
	_ Sketch = (*CountSketch)(nil)
	_ Sketch = (*Monitor)(nil)
	_ Sketch = (*TopK)(nil)
	_ Sketch = (*UnivMon)(nil)
	_ Sketch = (*AEE)(nil)
	_ Sketch = (*Distinct)(nil)
	_ Sketch = (*WindowedDistinct)(nil)
	_ Sketch = (*ColdFilter)(nil)
	_ Sketch = (*Pyramid)(nil)
)

// Mode selects the counter backend of a sketch.
type Mode int

const (
	// ModeSALSA is the paper's scheme: small counters that merge with
	// their power-of-two-aligned neighbors on overflow. The default.
	ModeSALSA Mode = iota
	// ModeBaseline uses fixed-width counters (32 bits unless overridden),
	// the configuration the paper's baselines use.
	ModeBaseline
	// ModeTango grows counters one cell at a time instead of doubling
	// (§IV, "Fine-grained Counter Merges"); slightly more accurate,
	// slower to decode. Not available for CountSketch.
	ModeTango
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeSALSA:
		return "salsa"
	case ModeBaseline:
		return "baseline"
	case ModeTango:
		return "tango"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Merge selects how merged counters combine their values.
type Merge int

const (
	// MergeDefault lets the sketch pick the correct policy: max for
	// cash-register CountMin and ConservativeUpdate, sum elsewhere.
	MergeDefault Merge = iota
	// MergeSum sets a merged counter to the sum of its parts; correct in
	// the Strict Turnstile model (negative updates allowed).
	MergeSum
	// MergeMax sets a merged counter to the max of its parts; more
	// accurate, but only correct in the Cash Register model.
	MergeMax
)

// Options configures a sketch. The zero value plus a Width is usable: a
// SALSA sketch with 8-bit base counters, 4 rows (5 for CountSketch), and
// the model-appropriate merge policy.
type Options struct {
	// Depth is the number of rows d; 0 means the paper's defaults
	// (4 for CountMin/ConservativeUpdate, 5 for CountSketch).
	Depth int
	// Width is the number of base counter slots per row; required, and
	// must be a power of two.
	Width int
	// Mode picks the counter backend; ModeSALSA if unset.
	Mode Mode
	// CounterBits is the base counter size in bits: for ModeBaseline the
	// fixed width (default 32), for SALSA/Tango the initial size s
	// (default 8).
	CounterBits uint
	// Merge picks the merged-counter combine rule (SALSA/Tango only).
	Merge Merge
	// CompactEncoding replaces the simple one-bit-per-counter merge
	// encoding with the near-optimal < 0.594 bits/counter encoding of
	// Appendix A (SALSA only; slightly slower, smaller).
	CompactEncoding bool
	// Seed makes hashing deterministic; sketches that will be merged or
	// subtracted must share it.
	Seed uint64
}

func (o Options) withDefaults(defaultDepth int, defaultMerge Merge) Options {
	if o.Depth == 0 {
		o.Depth = defaultDepth
	}
	if o.CounterBits == 0 {
		if o.Mode == ModeBaseline {
			o.CounterBits = 32
		} else {
			o.CounterBits = 8
		}
	}
	if o.Merge == MergeDefault {
		o.Merge = defaultMerge
	}
	return o
}

// An OptionsError reports Options that no sketch kind can use — the
// kind-independent invariants Validate checks. errors.As-match it to
// distinguish bad Options from an impossible composition
// (*CompositionError) at Build time.
type OptionsError struct {
	// Field names the offending Options field.
	Field string
	// Reason states the violated constraint, including the offending value.
	Reason string
}

func (e *OptionsError) Error() string { return "salsa: " + e.Reason }

// optionsErrf builds an *OptionsError for field.
func optionsErrf(field, format string, args ...any) error {
	return &OptionsError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Validate reports whether the Options are usable by any sketch kind. It
// checks the kind-independent invariants; kind-specific rules (CountSketch
// rejecting ModeTango, windowed sketches rejecting MergeMax, ...) are
// enforced by Build on the full topology Spec.
func (o Options) Validate() error {
	if o.Width <= 0 || o.Width&(o.Width-1) != 0 {
		return optionsErrf("Width", "Width %d must be a positive power of two", o.Width)
	}
	if o.Depth < 0 {
		return optionsErrf("Depth", "negative Depth %d", o.Depth)
	}
	if o.Depth > maxDepth {
		return optionsErrf("Depth", "Depth %d exceeds the maximum %d", o.Depth, maxDepth)
	}
	if o.Mode < ModeSALSA || o.Mode > ModeTango {
		return optionsErrf("Mode", "unknown %v", o.Mode)
	}
	if o.Merge < MergeDefault || o.Merge > MergeMax {
		return optionsErrf("Merge", "unknown Merge(%d)", int(o.Merge))
	}
	// Mirror the core row constructors' counter rules, so construction (and
	// the envelope decoder, which validates declared Options before building
	// reference sketches) returns errors where core would panic.
	bits := o.CounterBits
	if bits == 0 { // the defaults withDefaults will fill in
		if o.Mode == ModeBaseline {
			bits = 32
		} else {
			bits = 8
		}
	}
	if bits&(bits-1) != 0 {
		return optionsErrf("CounterBits", "CounterBits %d must be a power of two", o.CounterBits)
	}
	if o.Mode == ModeBaseline {
		if bits > 64 {
			return optionsErrf("CounterBits", "CounterBits %d exceeds 64", o.CounterBits)
		}
	} else if bits > 32 {
		return optionsErrf("CounterBits", "CounterBits %d exceeds 32 (SALSA/Tango base counters subdivide a 64-bit word)", o.CounterBits)
	}
	if o.Mode == ModeSALSA {
		if group := int(64 / bits); o.Width < group {
			return optionsErrf("Width", "ModeSALSA Width %d must hold a full 64-bit word of %d-bit counters (at least %d)", o.Width, bits, group)
		}
		if o.CompactEncoding && o.Width < 32 {
			return optionsErrf("Width", "CompactEncoding Width %d must hold a full 32-counter group", o.Width)
		}
	}
	if o.CompactEncoding && o.Mode != ModeSALSA {
		return optionsErrf("CompactEncoding", "CompactEncoding requires ModeSALSA, got %v", o.Mode)
	}
	return nil
}

// maxDepth bounds the row count of a sketch; it matches the decoder's
// hostile-payload bound, so every constructible sketch is serializable.
const maxDepth = 1024

// validateTrackerK bounds a tracker's heap capacity: positive and within
// the envelope decoder's maxHeapK, so every constructible tracker is
// serializable (and k fits int on 32-bit platforms).
func validateTrackerK(name string, k int) error {
	if k <= 0 {
		return fmt.Errorf("salsa: %s needs a positive k, got %d", name, k)
	}
	if k > maxHeapK {
		return fmt.Errorf("salsa: %s k %d exceeds the maximum %d", name, k, maxHeapK)
	}
	return nil
}

func (o Options) policy() core.MergePolicy {
	if o.Merge == MergeMax {
		return core.MaxMerge
	}
	return core.SumMerge
}

// KeyBytes hashes an arbitrary byte key (such as a packet 5-tuple) to the
// uint64 item space the sketches consume, using BobHash as in the paper's
// reference implementation. It is deterministic and seed-free; use distinct
// logical namespaces by prefixing the key.
//
//salsa:hotpath
func KeyBytes(key []byte) uint64 {
	return hashing.Bob64(key, 0x5a15a0b0b)
}

// KeyString is KeyBytes for strings.
//
//salsa:hotpath
func KeyString(key string) uint64 {
	return KeyBytes([]byte(key))
}
