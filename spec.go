package salsa

import (
	"errors"
	"fmt"
)

// Spec describes a sketch topology declaratively: a leaf picks the sketch
// kind (CountMinOf, ConservativeOf, CountSketchOf, MonitorOf, TopKOf,
// UnivMonOf, AEEOf, DistinctOf) and decorators layer the deployment shape
// on top (Windowed, ShardedBy, EpochShardedBy, Filtered, Tiered). A Spec
// is inert data — Build, the only constructor, realizes it as a concrete
// monomorphic sketch type, so the devirtualized hot paths are unaffected
// by how a sketch is declared.
//
// The orthogonal choices compose freely within the supported surface:
//
//	Build(CountMinOf(opt))                              → *CountMin
//	Build(ConservativeOf(opt))                          → *CountMin
//	Build(CountSketchOf(opt))                           → *CountSketch
//	Build(MonitorOf(opt, k))                            → *Monitor
//	Build(TopKOf(opt, k))                               → *TopK
//	Build(UnivMonOf(opt, levels, k))                    → *UnivMon
//	Build(AEEOf(opt))                                   → *AEE
//	Build(DistinctOf(opt))                              → *Distinct
//	Build(Filtered(ConservativeOf(opt)))                → *ColdFilter
//	Build(Tiered(CountMinOf(opt)))                      → *Pyramid
//	Build(Windowed(CountMinOf(opt), b, n))              → *WindowedCountMin
//	Build(Windowed(CountSketchOf(opt), b, n))           → *WindowedCountSketch
//	Build(Windowed(MonitorOf(opt, k), b, n))            → *WindowedMonitor
//	Build(Windowed(DistinctOf(opt), b, n))              → *WindowedDistinct
//	Build(ShardedBy(CountMinOf(opt), s))                → *ShardedCountMin
//	Build(ShardedBy(CountSketchOf(opt), s))             → *ShardedCountSketch
//	Build(ShardedBy(MonitorOf(opt, k), s))              → *ShardedMonitor
//	Build(ShardedBy(AEEOf(opt), s))                     → *ShardedAEE
//	Build(ShardedBy(DistinctOf(opt), s))                → *ShardedDistinct
//	Build(ShardedBy(Filtered(ConservativeOf(opt)), s))  → *ShardedColdFilter
//	Build(ShardedBy(Tiered(CountMinOf(opt)), s))        → *ShardedPyramid
//	Build(ShardedBy(Windowed(CountMinOf(opt), b, n), s)) → *ShardedWindowedCountMin
//	Build(ShardedBy(Windowed(CountSketchOf(opt), b, n), s)) → *ShardedWindowedCountSketch
//	Build(ShardedBy(Windowed(MonitorOf(opt, k), b, n), s)) → *ShardedWindowedMonitor
//	Build(EpochShardedBy(CountMinOf(opt), w))            → *EpochCountMin
//	Build(EpochShardedBy(ConservativeOf(opt), w))        → *EpochCountMin
//	Build(EpochShardedBy(CountSketchOf(opt), w))         → *EpochCountSketch
//	Build(EpochShardedBy(MonitorOf(opt, k), w))          → *EpochMonitor
//	Build(EpochShardedBy(DistinctOf(opt), w))            → *EpochDistinct
//	Build(EpochShardedBy(Windowed(CountMinOf(opt), b, 0), w)) → *EpochWindowedCountMin
//	Build(EpochShardedBy(Windowed(CountSketchOf(opt), b, 0), w)) → *EpochWindowedCountSketch
//	Build(EpochShardedBy(Windowed(DistinctOf(opt), b, 0), w)) → *EpochWindowedDistinct
//
// Compositions whose semantics do not hold — windowing a UnivMon (its
// per-level heaps cannot rotate), windowing an AEE (downsampling is
// irreversible), decorating a decorator of the same kind — are reported by
// Build as a *CompositionError, never panics. String returns the topology
// expression in the grammar ParseSpec accepts (the leaf Options are
// carried separately).
type Spec interface {
	// String returns the topology expression, e.g.
	// "sharded(8,windowed(4,65536,cms))"; ParseSpec parses it back.
	String() string
	// validate and build are unexported: the algebra is a closed set, so
	// Build can guarantee an exhaustive, panic-free composition check.
	// build assumes validate accepted the spec.
	validate() error
	build() Sketch
}

// CompositionError is the typed error Build returns when a structurally
// well-formed Spec combines a decorator with a leaf (or another decorator)
// whose semantics do not support it. errors.As-match it to distinguish
// "this topology cannot exist" from invalid Options or parameters.
// ErrNilSpec is returned by Build for a nil Spec.
var ErrNilSpec = errors.New("salsa: Build of a nil spec")

type CompositionError struct {
	// Decorator is the rejecting decorator ("Windowed", "ShardedBy",
	// "Filtered", "Tiered").
	Decorator string
	// Inner is the inner spec's topology expression.
	Inner string
	// Reason states why the semantics do not hold.
	Reason string
}

func (e *CompositionError) Error() string {
	return fmt.Sprintf("salsa: %s cannot decorate %s: %s", e.Decorator, e.Inner, e.Reason)
}

// compositionErr builds a *CompositionError for decorator over inner.
func compositionErr(decorator string, inner Spec, reason string) error {
	return &CompositionError{Decorator: decorator, Inner: fmt.Sprint(inner), Reason: reason}
}

// sketchKind enumerates the leaf sketch kinds of the Spec algebra.
type sketchKind int

const (
	kindCountMin sketchKind = iota
	kindConservative
	kindCountSketch
	kindMonitor
	kindTopK
	kindUnivMon
	kindAEE
	kindDistinct
)

func (k sketchKind) String() string {
	switch k {
	case kindCountMin:
		return "cms"
	case kindConservative:
		return "cus"
	case kindCountSketch:
		return "cs"
	case kindMonitor:
		return "monitor"
	case kindTopK:
		return "topk"
	case kindUnivMon:
		return "univmon"
	case kindAEE:
		return "aee"
	case kindDistinct:
		return "distinct"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// validateFor checks the Options against one leaf kind: the generic
// invariants of Validate plus the kind's own restrictions.
func (o Options) validateFor(kind sketchKind) error {
	if err := o.Validate(); err != nil {
		return err
	}
	switch kind {
	case kindCountSketch, kindTopK, kindUnivMon:
		// UnivMon levels are Count Sketches, so they inherit its rules.
		if o.Mode == ModeTango {
			return errors.New("salsa: CountSketch does not support ModeTango")
		}
		if o.Merge == MergeMax {
			return errors.New("salsa: CountSketch requires MergeSum (signed counters)")
		}
		if o.CounterBits == 1 {
			return fmt.Errorf("salsa: CountSketch needs at least 2-bit counters, got %d", o.CounterBits)
		}
	case kindAEE:
		if o.Mode == ModeTango {
			return errors.New("salsa: AEE does not support ModeTango")
		}
		if o.Merge == MergeMax {
			return errors.New("salsa: AEE manages overflow itself (merge vs downsample); leave Merge unset")
		}
		if o.CompactEncoding {
			return errors.New("salsa: AEE does not support CompactEncoding (downsampling rewrites counters in place)")
		}
	case kindDistinct:
		if o.Mode == ModeTango {
			return errors.New("salsa: Distinct does not support ModeTango (Tango rows do not report zero fractions)")
		}
	}
	return nil
}

// leafSpec is a sketch-kind leaf of the algebra.
type leafSpec struct {
	kind   sketchKind
	opt    Options
	k      int // heap capacity for kindMonitor/kindTopK/kindUnivMon
	levels int // level count for kindUnivMon
}

// CountMinOf describes a Count-Min Sketch over opt.
func CountMinOf(opt Options) Spec { return leafSpec{kind: kindCountMin, opt: opt} }

// ConservativeOf describes a Conservative Update Sketch over opt.
func ConservativeOf(opt Options) Spec { return leafSpec{kind: kindConservative, opt: opt} }

// CountSketchOf describes a Count Sketch over opt.
func CountSketchOf(opt Options) Spec { return leafSpec{kind: kindCountSketch, opt: opt} }

// MonitorOf describes a heavy-hitter Monitor (a Conservative Update sketch
// plus a top-k heap) over opt.
func MonitorOf(opt Options, k int) Spec { return leafSpec{kind: kindMonitor, opt: opt, k: k} }

// TopKOf describes a TopK tracker (a Count Sketch plus a top-k heap) over
// opt.
func TopKOf(opt Options, k int) Spec { return leafSpec{kind: kindTopK, opt: opt, k: k} }

// UnivMonOf describes a UnivMon universal sketch (§III): levels Count
// Sketch instances over geometrically halving substreams, each tracking
// its heapK largest items. Non-positive levels and heapK take the paper's
// defaults (16 levels, heaps of 100), resolved here so the Spec's String
// form spells the actual geometry.
func UnivMonOf(opt Options, levels, heapK int) Spec {
	if levels <= 0 {
		levels = 16
	}
	if heapK <= 0 {
		heapK = 100
	}
	return leafSpec{kind: kindUnivMon, opt: opt, k: heapK, levels: levels}
}

// AEEOf describes an Additive Error Estimator sketch over opt:
// ModeBaseline builds the plain AEE over short fixed counters (16-bit by
// default), ModeSALSA (the default) the paper's estimator-integrated SALSA
// CMS that resolves each overflow by whichever of merging and downsampling
// raises the error bound less (§V).
func AEEOf(opt Options) Spec { return leafSpec{kind: kindAEE, opt: opt} }

// DistinctOf describes a Linear Counting distinct estimator: a Count-Min
// sketch whose rows' zero-counter fractions yield the −w·ln(p) estimate
// (§III, "Counting Distinct Items"). The sketch still answers frequency
// queries; Distinct adds the cardinality surface.
func DistinctOf(opt Options) Spec { return leafSpec{kind: kindDistinct, opt: opt} }

func (s leafSpec) String() string {
	switch s.kind {
	case kindMonitor, kindTopK:
		return fmt.Sprintf("%s(%d)", s.kind, s.k)
	case kindUnivMon:
		return fmt.Sprintf("univmon(%d,%d)", s.levels, s.k)
	}
	return s.kind.String()
}

func (s leafSpec) validate() error {
	if err := s.opt.validateFor(s.kind); err != nil {
		return err
	}
	switch s.kind {
	case kindMonitor, kindTopK:
		if err := validateTrackerK(s.kind.String(), s.k); err != nil {
			return err
		}
	case kindUnivMon:
		if s.levels <= 0 || s.levels > maxUnivMonLevels {
			return fmt.Errorf("salsa: univmon needs between 1 and %d levels, got %d", maxUnivMonLevels, s.levels)
		}
		if err := validateTrackerK("univmon", s.k); err != nil {
			return err
		}
	}
	return nil
}

func (s leafSpec) build() Sketch {
	switch s.kind {
	case kindCountMin, kindConservative:
		return buildCountMin(s.opt, s.kind == kindConservative)
	case kindCountSketch:
		return buildCountSketch(s.opt)
	case kindMonitor:
		return buildMonitor(s.opt, s.k)
	case kindTopK:
		return buildTopK(s.opt, s.k)
	case kindUnivMon:
		return buildUnivMon(s.opt, s.levels, s.k)
	case kindAEE:
		return buildAEE(s.opt)
	case kindDistinct:
		return buildDistinct(s.opt)
	}
	panic(fmt.Sprintf("salsa: unknown sketch kind %v", s.kind))
}

// windowedSpec decorates a leaf with a sliding window.
type windowedSpec struct {
	inner       Spec
	buckets     int
	bucketItems int
}

// Windowed decorates spec with a sliding window of buckets ring buckets
// rotating every bucketItems updates (0 = Tick-driven). The windowed
// sketch always uses sum-merge counters; a spec whose Options force
// MergeMax fails to Build.
func Windowed(spec Spec, buckets, bucketItems int) Spec {
	return windowedSpec{inner: spec, buckets: buckets, bucketItems: bucketItems}
}

func (s windowedSpec) String() string {
	return fmt.Sprintf("windowed(%d,%d,%s)", s.buckets, s.bucketItems, s.inner)
}

func (s windowedSpec) validate() error {
	leaf, ok := s.inner.(leafSpec)
	if !ok {
		if s.inner == nil {
			return errors.New("salsa: Windowed over a nil spec")
		}
		return compositionErr("Windowed", s.inner, "window the sketch, then layer the other decorators on the window")
	}
	switch leaf.kind {
	case kindTopK:
		return compositionErr("Windowed", s.inner, "a TopK's signed estimates do not rotate; use MonitorOf for windowed heavy hitters")
	case kindUnivMon:
		return compositionErr("Windowed", s.inner, "UnivMon per-level heaps hold whole-stream candidates and cannot retire a bucket's contribution")
	case kindAEE:
		return compositionErr("Windowed", s.inner, "AEE downsampling is irreversible, so a retiring bucket cannot restore the sampling rate")
	}
	if err := leaf.validate(); err != nil {
		return err
	}
	return validateWindow(leaf.opt, s.buckets, s.bucketItems)
}

func (s windowedSpec) build() Sketch {
	leaf := s.inner.(leafSpec)
	switch leaf.kind {
	case kindCountMin, kindConservative:
		return buildWindowedCMS(leaf.opt, s.buckets, s.bucketItems, leaf.kind == kindConservative)
	case kindCountSketch:
		return buildWindowedCountSketch(leaf.opt, s.buckets, s.bucketItems)
	case kindMonitor:
		return buildWindowedMonitor(leaf.opt, leaf.k, s.buckets, s.bucketItems)
	}
	return buildWindowedDistinct(leaf.opt, s.buckets, s.bucketItems)
}

// shardedSpec decorates a topology with the concurrent ingestion layer.
type shardedSpec struct {
	inner  Spec
	shards int
}

// ShardedBy decorates spec with the Sharded concurrency layer: shards
// hash-routed, independently-locked copies (rounded up to a power of two).
// ShardedBy must be the outermost decorator; it accepts a leaf or a
// Windowed leaf.
func ShardedBy(spec Spec, shards int) Spec {
	return shardedSpec{inner: spec, shards: shards}
}

func (s shardedSpec) String() string {
	return fmt.Sprintf("sharded(%d,%s)", s.shards, s.inner)
}

func (s shardedSpec) validate() error {
	if s.shards <= 0 {
		return fmt.Errorf("salsa: ShardedBy needs a positive shard count, got %d", s.shards)
	}
	if err := validateShardCount(s.shards); err != nil {
		return err
	}
	switch inner := s.inner.(type) {
	case leafSpec:
		switch inner.kind {
		case kindTopK:
			return compositionErr("ShardedBy", s.inner, "a TopK's signed global estimates do not partition; use MonitorOf for sharded heavy hitters")
		case kindUnivMon:
			return compositionErr("ShardedBy", s.inner, "UnivMon's recursive G-sum estimator couples levels across the whole stream; run one UnivMon per substream instead")
		}
		return inner.validate()
	case windowedSpec:
		if leaf, ok := inner.inner.(leafSpec); ok && leaf.kind == kindDistinct {
			return compositionErr("ShardedBy", s.inner, "shard independent WindowedDistinct instances instead; their estimates add across the routing partition")
		}
		return inner.validate()
	case filteredSpec, tieredSpec:
		return s.inner.validate()
	case nil:
		return errors.New("salsa: ShardedBy over a nil spec")
	}
	return compositionErr("ShardedBy", s.inner, "ShardedBy must be the outermost decorator")
}

// build gives every shard its own copy of the inner topology, seeded per
// shard (shardOptions), and wraps them in the Sharded* type for their
// kind.
func (s shardedSpec) build() Sketch {
	var route uint64 // the routing seed, derived from the leaf Options
	sks := make([]Sketch, shardCount(s.shards))
	for i := range sks {
		sks[i] = mapLeafOptions(s.inner, func(o Options) Options {
			route = routeSeed(o)
			return shardOptions(o, i)
		}).build()
	}
	sk, err := shardedWrapper(sks[0])(route, sks)
	if err != nil {
		panic(err) // unreachable: every shard has the same type
	}
	return sk
}

// epochSpec decorates a topology with the epoch-merged lock-free
// ingestion layer.
type epochSpec struct {
	inner   Spec
	writers int
}

// EpochShardedBy decorates spec with the epoch-merged concurrency layer:
// writers pre-allocated private sketch slots ingested lock-free by
// per-goroutine EpochWriters and drained into one shared read view at
// epoch boundaries (Advance/AutoAdvance, or Tick for windowed inners).
// The slot count adapts: demand beyond writers grows it, sustained empty
// drains shrink it back. Like ShardedBy it must be the outermost
// decorator; it accepts the mergeable leaves (cms, cus, cs, monitor,
// distinct) and Tick-driven windows over cms/cus/cs/distinct. Epoch
// sketches force sum-merge counters, so a spec whose Options demand
// MergeMax fails to Build.
func EpochShardedBy(spec Spec, writers int) Spec {
	return epochSpec{inner: spec, writers: writers}
}

func (s epochSpec) String() string {
	return fmt.Sprintf("epoch(%d,%s)", s.writers, s.inner)
}

func (s epochSpec) validate() error {
	if err := validateEpochWriters(s.writers); err != nil {
		return err
	}
	switch inner := s.inner.(type) {
	case leafSpec:
		switch inner.kind {
		case kindTopK:
			return compositionErr("EpochShardedBy", s.inner, "a TopK candidate's signed private-epoch estimate does not survive re-offering against the merged view; use MonitorOf for epoch heavy hitters")
		case kindUnivMon:
			return compositionErr("EpochShardedBy", s.inner, "UnivMon's recursive G-sum estimator couples levels across the whole stream; run one UnivMon per substream instead")
		case kindAEE:
			return compositionErr("EpochShardedBy", s.inner, "AEE downsampling is irreversible, so private estimators' sampling decisions cannot be merged into one view")
		}
		if err := inner.validate(); err != nil {
			return err
		}
		return validateEpochMerge(inner.opt)
	case windowedSpec:
		leaf, ok := inner.inner.(leafSpec)
		if !ok {
			return inner.validate()
		}
		if leaf.kind == kindMonitor {
			return compositionErr("EpochShardedBy", s.inner, "per-bucket candidate heaps need per-item offers at ingest time, which private-epoch ingestion defers past rotation; use EpochShardedBy(MonitorOf) for whole-stream heavy hitters")
		}
		if inner.bucketItems != 0 {
			return compositionErr("EpochShardedBy", s.inner, "count-based rotation would split a drained epoch across buckets; use a Tick-driven window (bucketItems = 0)")
		}
		return inner.validate()
	case nil:
		return errors.New("salsa: EpochShardedBy over a nil spec")
	}
	return compositionErr("EpochShardedBy", s.inner, "EpochShardedBy must be the outermost decorator")
}

// build realizes the inner topology over sum-merge counters as the shared
// view and wires the epoch core onto it.
func (s epochSpec) build() Sketch {
	view := mapLeafOptions(s.inner, func(o Options) Options {
		if o.Merge == MergeDefault {
			o.Merge = MergeSum
		}
		return o
	}).build()
	sk, err := newEpochLayer(view, s.writers)
	if err != nil {
		panic(err) // unreachable: validate admits only views the layer accepts
	}
	return sk
}

// filteredSpec decorates a frequency leaf with the Cold Filter front end.
type filteredSpec struct {
	inner Spec
}

// Filtered decorates a CountMinOf or ConservativeOf leaf with a Cold
// Filter (§III): two conservative filter layers (4-bit and 8-bit) absorb
// the cold items' volume, and only the hot residual reaches the leaf
// sketch, which becomes the filter's second stage. The filter layer widths
// are derived from the leaf Width (4× for layer 1, 1× for layer 2, 3
// probes each), so one Options describes the whole pipeline.
func Filtered(spec Spec) Spec { return filteredSpec{inner: spec} }

func (s filteredSpec) String() string { return fmt.Sprintf("filtered(%s)", s.inner) }

func (s filteredSpec) validate() error {
	leaf, ok := s.inner.(leafSpec)
	if !ok {
		if s.inner == nil {
			return errors.New("salsa: Filtered over a nil spec")
		}
		return compositionErr("Filtered", s.inner, "the filter front end feeds a single second-stage sketch; decorate the leaf, then shard the filter")
	}
	switch leaf.kind {
	case kindCountMin, kindConservative:
	default:
		return compositionErr("Filtered", s.inner, "the filter's residual stream only preserves CountMin/ConservativeUpdate overestimate semantics")
	}
	if err := leaf.validate(); err != nil {
		return err
	}
	return validateFilterWidth(leaf.opt.Width)
}

func (s filteredSpec) build() Sketch {
	leaf := s.inner.(leafSpec)
	return buildColdFilter(leaf.opt, leaf.kind == kindConservative)
}

// tieredSpec decorates a CountMin leaf with the Pyramid layered counters.
type tieredSpec struct {
	inner Spec
}

// Tiered decorates a CountMinOf leaf with the Pyramid sketch's layered
// hybrid counters (the paper's variable-counter-size competitor): layer-1
// cells are 8-bit counters and overflows carry into halving-width parent
// layers of shared 6-bit hybrid counters. The pyramid replaces the leaf's
// counter backend entirely, so the leaf's Mode, CounterBits, Merge and
// CompactEncoding are not used; Depth, Width and Seed shape the rows.
func Tiered(spec Spec) Spec { return tieredSpec{inner: spec} }

func (s tieredSpec) String() string { return fmt.Sprintf("tiered(%s)", s.inner) }

func (s tieredSpec) validate() error {
	leaf, ok := s.inner.(leafSpec)
	if !ok {
		if s.inner == nil {
			return errors.New("salsa: Tiered over a nil spec")
		}
		return compositionErr("Tiered", s.inner, "the pyramid is a counter backend for a single sketch; decorate the leaf, then shard the pyramid")
	}
	if leaf.kind != kindCountMin {
		return compositionErr("Tiered", s.inner, "pyramid carries implement plain Count-Min updates only")
	}
	if err := leaf.validate(); err != nil {
		return err
	}
	return validatePyramidWidth(leaf.opt.Width)
}

func (s tieredSpec) build() Sketch { return buildPyramid(s.inner.(leafSpec).opt) }

// Build realizes a Spec, returning the topology's concrete sketch type
// behind the Sketch interface (type-assert for the query surface). All
// construction errors — invalid Options, unsupported compositions — are
// returned, never panicked.
func Build(spec Spec) (Sketch, error) {
	if spec == nil {
		return nil, ErrNilSpec
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec.build(), nil
}

// MustBuild is Build for specs known valid at compile time; it panics on
// error.
func MustBuild(spec Spec) Sketch {
	s, err := Build(spec)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// mapLeafOptions returns spec — a leaf, or a leaf under one Windowed,
// Filtered or Tiered decorator, as validate admits inside a concurrency
// layer — with its leaf's Options replaced by f(opt).
func mapLeafOptions(spec Spec, f func(Options) Options) Spec {
	switch s := spec.(type) {
	case leafSpec:
		s.opt = f(s.opt)
		return s
	case windowedSpec:
		s.inner = mapLeafOptions(s.inner, f)
		return s
	case filteredSpec:
		s.inner = mapLeafOptions(s.inner, f)
		return s
	case tieredSpec:
		s.inner = mapLeafOptions(s.inner, f)
		return s
	}
	panic(fmt.Sprintf("salsa: %v is not a leaf or single-leaf decorator", spec))
}
