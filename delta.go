package salsa

// Generic merge/subtract/clone arithmetic over decoded Sketch values.
//
// The per-type Merge/Subtract methods (CountMin.Merge, CountSketch.Subtract,
// ...) panic on incompatible operands, which is the right contract for
// callers that built both sides themselves. A distributed aggregator works
// the other way around: it holds sketches decoded from envelopes sent by
// remote (possibly hostile, possibly misconfigured) peers and must reject
// bad pairs with an error, not a panic. MergeInto/SubtractInto are that
// error-returning surface, and DeltaCore/CloneSketch/CopyInto round out
// what a delta-shipping protocol needs: unwrapping a concurrent ingest
// layer to its mergeable view, deep-copying a sketch through the envelope
// codec, and copying one word for word into a sketch the caller recycles.

import (
	"fmt"
)

// A DeltaError reports that a sketch (or a pair of sketches) is outside
// the domain of the generic merge/subtract arithmetic: an unsupported
// topology, mismatched operand types or Options, or a backend with no
// subtract kernel. Callers distinguish it from transport or payload
// corruption errors with errors.As.
type DeltaError struct {
	// Op is the rejected operation ("merge", "subtract", "copy", "delta
	// core").
	Op string
	// Reason says what ruled the operand(s) out.
	Reason string
}

func (e *DeltaError) Error() string {
	return fmt.Sprintf("salsa: %s: %s", e.Op, e.Reason)
}

func deltaErrf(op, format string, args ...any) error {
	return &DeltaError{Op: op, Reason: fmt.Sprintf(format, args...)}
}

// DeltaCore unwraps s to the backend that merge/subtract arithmetic runs
// on: an epoch ingest layer yields its shared read view, a plain CountMin
// or CountSketch yields itself. Topologies whose combine semantics are not
// plain counter-wise sums — windows (counts leave on rotation, so deltas
// are not monotone), shards, trackers, and the estimator sketches — return
// a *DeltaError.
//
// The caller owns the coordination: for an epoch layer, flush writers and
// Advance before touching the returned view, and neither read nor mutate
// it while an Advance (or AutoAdvance) may drain into it. To copy the view
// beside drains, pass the epoch layer itself to CopyInto, which holds the
// view lock while it copies.
func DeltaCore(s Sketch) (Sketch, error) {
	core := s
	if e, ok := s.(interface{ epochCore() *Epoch }); ok {
		core = e.epochCore().view
	}
	switch core.(type) {
	case *CountMin, *CountSketch:
		return core, nil
	}
	return nil, deltaErrf("delta core", "topology %T has no counter-wise mergeable core", s)
}

// CloneSketch deep-copies s through the universal envelope codec. The
// clone shares seeds (so it stays merge-compatible with the original) but
// no storage; for the envelope-supported topologies the clone's marshaled
// bytes are identical to the original's.
func CloneSketch(s Sketch) (Sketch, error) {
	blob, err := Marshal(s)
	if err != nil {
		return nil, err
	}
	return Unmarshal(blob)
}

// CopyInto makes dst a copy of src, word for word: afterwards
// Marshal(dst) equals Marshal(src), and the two share no storage. The
// operands are checked as MergeInto checks them, and on a mismatch dst is
// left untouched. src may also be an EpochShardedBy product whose view is
// a CountMin or CountSketch; its view is copied under the view lock, so a
// concurrent Advance cannot tear the copy. A caller that keeps dst between
// copies copies a sketch without allocating, where CloneSketch encodes and
// decodes a new one.
func CopyInto(dst, src Sketch) error {
	if e, ok := src.(interface{ epochCore() *Epoch }); ok {
		ep := e.epochCore()
		ep.viewMu.Lock()
		defer ep.viewMu.Unlock()
		return copyInto(dst, ep.view)
	}
	return copyInto(dst, src)
}

func copyInto(dst, src Sketch) error {
	switch d := dst.(type) {
	case *CountMin:
		s, err := asCountMin("copy", src, d)
		if err != nil {
			return err
		}
		d.sk.CopyFrom(s.sk)
		return nil
	case *CountSketch:
		s, err := asCountSketch("copy", src, d)
		if err != nil {
			return err
		}
		d.sk.CopyFrom(s.sk)
		return nil
	default:
		return deltaErrf("copy", "unsupported destination topology %T", dst)
	}
}

// MergeInto folds src into dst counter-wise (dst ∪ src under dst's merge
// policy), like CountMin.Merge/CountSketch.Merge but rejecting mismatched
// or incompatible operands with an error instead of panicking. Both
// operands must be the same concrete type with equal Options.
func MergeInto(dst, src Sketch) error {
	switch d := dst.(type) {
	case *CountMin:
		s, err := asCountMin("merge", src, d)
		if err != nil {
			return err
		}
		d.sk.MergeFrom(s.sk)
		return nil
	case *CountSketch:
		s, err := asCountSketch("merge", src, d)
		if err != nil {
			return err
		}
		d.sk.MergeFrom(s.sk, 1)
		return nil
	default:
		return deltaErrf("merge", "unsupported destination topology %T", dst)
	}
}

// SubtractInto subtracts src from dst counter-wise (dst − src), producing
// the delta sketch of the paper's change-detection and delta-shipping use
// cases. It requires sum-merge semantics: a MergeMax CountMin has no
// meaningful inverse, and Tango rows have no subtract kernel — both return
// a *DeltaError. The subtrahend must be "contained" in dst (every counter
// ≤ its dst counterpart, as when src is an earlier snapshot of dst);
// otherwise unsigned CountMin counters underflow.
func SubtractInto(dst, src Sketch) error {
	switch d := dst.(type) {
	case *CountMin:
		s, err := asCountMin("subtract", src, d)
		if err != nil {
			return err
		}
		if d.opt.Mode == ModeTango {
			return deltaErrf("subtract", "ModeTango rows have no subtract kernel")
		}
		if d.opt.Merge != MergeSum {
			return deltaErrf("subtract", "%v sketches have no inverse; build with Merge: MergeSum", d.opt.Merge)
		}
		d.sk.SubtractFrom(s.sk)
		return nil
	case *CountSketch:
		s, err := asCountSketch("subtract", src, d)
		if err != nil {
			return err
		}
		d.sk.MergeFrom(s.sk, -1)
		return nil
	default:
		return deltaErrf("subtract", "unsupported destination topology %T", dst)
	}
}

// asCountMin checks that src is a *CountMin compatible with dst.
func asCountMin(op string, src Sketch, dst *CountMin) (*CountMin, error) {
	s, ok := src.(*CountMin)
	if !ok {
		return nil, deltaErrf(op, "operand type mismatch: %T vs %T", dst, src)
	}
	if s.opt != dst.opt {
		return nil, deltaErrf(op, "operand Options differ: %+v vs %+v", dst.opt, s.opt)
	}
	if s.conservative != dst.conservative {
		return nil, deltaErrf(op, "cannot combine conservative-update and plain CountMin sketches")
	}
	if err := dst.sk.CompatibleWith(s.sk); err != nil {
		return nil, deltaErrf(op, "%v", err)
	}
	return s, nil
}

// asCountSketch checks that src is a *CountSketch compatible with dst.
func asCountSketch(op string, src Sketch, dst *CountSketch) (*CountSketch, error) {
	s, ok := src.(*CountSketch)
	if !ok {
		return nil, deltaErrf(op, "operand type mismatch: %T vs %T", dst, src)
	}
	if s.opt != dst.opt {
		return nil, deltaErrf(op, "operand Options differ: %+v vs %+v", dst.opt, s.opt)
	}
	if err := dst.sk.CompatibleWith(s.sk); err != nil {
		return nil, deltaErrf(op, "%v", err)
	}
	return s, nil
}

// DeltaCapable reports whether s can serve as the backend of a
// delta-shipping protocol: its DeltaCore must exist and support exact
// subtract (sum merge, no Tango rows). It returns nil for capable
// sketches and a *DeltaError explaining the obstruction otherwise.
func DeltaCapable(s Sketch) error {
	core, err := DeltaCore(s)
	if err != nil {
		return err
	}
	if cm, ok := core.(*CountMin); ok {
		if cm.opt.Mode == ModeTango {
			return deltaErrf("delta core", "ModeTango rows have no subtract kernel")
		}
		if cm.opt.Merge != MergeSum {
			return deltaErrf("delta core", "%v sketches have no inverse; build with Merge: MergeSum", cm.opt.Merge)
		}
	}
	return nil
}
