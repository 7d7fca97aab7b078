// Package epochtest is the concurrency harness for the epoch-merged
// ingestion layer (salsa.EpochShardedBy): because the whole epoch design
// is a concurrency bet, its proof is executable and reusable rather than
// spread over ad-hoc tests.
//
// Four instruments:
//
//   - Deterministic schedules: NewSchedule derives a seeded interleaving
//     of writer ingests, epoch advances and window ticks; Replay executes
//     it single-threaded, so any run is reproduced exactly from (seed,
//     config) alone.
//   - Drain-barrier equivalence: after a replay quiesces (writers closed,
//     one final advance), CheckSequentialEquivalence asserts the
//     topology's answers match a sequential reference that ingested the
//     same multiset in schedule order — and, for backends whose merge is
//     a pure counter sum, that the marshaled bytes match byte for byte,
//     proving merge scheduling leaves no trace. CheckDeterminism asserts
//     two same-seed replays marshal identically for every backend,
//     including the history-dependent conservative-update ones.
//   - Monotonicity: Hammer's readers assert that increment-only streams
//     never make an estimate shrink while writers and the merger run
//     concurrently — the linearizability-style property queries rely on.
//   - Conservation: after a hammer quiesces, every ingested item is
//     accounted for in the drain odometer (Stats().Drained), so no epoch
//     cut can lose or double-drain a private buffer.
//
// The package is driven from the root package's tests (it imports salsa;
// salsa's non-test code never imports it back).
//
//salsa:deterministic
package epochtest

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"salsa"
	"salsa/internal/stream"
)

// Writer is the per-goroutine ingestion surface the driver needs;
// *salsa.EpochWriter satisfies it.
type Writer interface {
	UpdateBatch(items []uint64, count int64)
	Flush()
	Close()
}

// Target adapts one built epoch topology for the harness. Wrap builds one
// from any salsa epoch sketch.
type Target struct {
	Sketch    salsa.Sketch
	NewWriter func() Writer
	Advance   func()
	Tick      func()                  // nil for unwindowed topologies
	Query     func(item uint64) int64 // normalized point estimate
	Stats     func() salsa.EpochStats
	Pending   func() uint64
}

// epochLayer is the surface every EpochShardedBy product shares through
// its embedded *salsa.Epoch.
type epochLayer interface {
	NewWriter(batch int) *salsa.EpochWriter
	Advance()
	Stats() salsa.EpochStats
	Pending() uint64
}

// Wrap adapts a built epoch sketch (any EpochShardedBy product) into a
// Target. Windowed products are recognized by their Tick method.
func Wrap(s salsa.Sketch) (*Target, error) {
	e, ok := s.(epochLayer)
	if !ok {
		return nil, fmt.Errorf("epochtest: %T is not an epoch topology", s)
	}
	t := &Target{
		Sketch:    s,
		NewWriter: func() Writer { return e.NewWriter(0) },
		Advance:   e.Advance,
		Stats:     e.Stats,
		Pending:   e.Pending,
	}
	if w, ok := s.(interface{ Tick() }); ok {
		t.Tick = w.Tick
	}
	switch q := s.(type) {
	case interface{ Query(uint64) uint64 }:
		t.Query = func(item uint64) int64 { return int64(q.Query(item)) }
	case interface{ Query(uint64) int64 }:
		t.Query = q.Query
	default:
		return nil, fmt.Errorf("epochtest: %T has no point query", s)
	}
	return t, nil
}

// MustWrap is Wrap for sketches known to be epoch topologies.
func MustWrap(s salsa.Sketch) *Target {
	t, err := Wrap(s)
	if err != nil {
		panic(err.Error())
	}
	return t
}

// StepKind enumerates schedule operations.
type StepKind int

const (
	// StepIngest applies one writer's batch to its private sketch.
	StepIngest StepKind = iota
	// StepAdvance cuts an epoch (merger drain).
	StepAdvance
	// StepTick cuts an epoch and rotates the window (Advance on
	// unwindowed targets).
	StepTick
)

// Step is one schedule operation.
type Step struct {
	Kind   StepKind
	Writer int      // StepIngest: which writer performs it
	Items  []uint64 // StepIngest: the batch
}

// Schedule is a deterministic interleaving of writer and merger
// operations, fully determined by the ScheduleConfig that generated it.
type Schedule struct {
	Writers int
	Steps   []Step
}

// Ingested returns the schedule's full item multiset in schedule order —
// what a sequential reference ingests.
func (s Schedule) Ingested() []uint64 {
	var out []uint64
	for _, st := range s.Steps {
		out = append(out, st.Items...)
	}
	return out
}

// ScheduleConfig seeds a schedule. All fields are required except Ticks.
type ScheduleConfig struct {
	Seed     uint64
	Writers  int
	Steps    int     // total schedule steps
	ChunkMax int     // max items per ingest step
	Universe int     // distinct-item bound of the Zipf trace
	Alpha    float64 // Zipf skew (0.99 ≈ the paper's workloads)
	Ticks    bool    // interleave window rotations
}

// splitmix64 is the harness PRNG: tiny, seedable, reproducible.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewSchedule derives a deterministic schedule: a Zipf item trace carved
// into per-writer chunks, with epoch advances (~1/12 of steps) and —
// when cfg.Ticks — window rotations (~1/24) interleaved at seeded
// positions.
func NewSchedule(cfg ScheduleConfig) Schedule {
	rng := cfg.Seed
	trace := stream.Zipf(cfg.Steps*max(cfg.ChunkMax, 1), max(cfg.Universe, 1), cfg.Alpha, cfg.Seed^0xa5a5)
	sched := Schedule{Writers: cfg.Writers}
	pos := 0
	for i := 0; i < cfg.Steps; i++ {
		r := splitmix64(&rng)
		switch {
		case r%24 == 0 && cfg.Ticks:
			sched.Steps = append(sched.Steps, Step{Kind: StepTick})
		case r%12 == 1:
			sched.Steps = append(sched.Steps, Step{Kind: StepAdvance})
		default:
			n := 1 + int(r>>32)%max(cfg.ChunkMax, 1)
			if pos+n > len(trace) {
				n = len(trace) - pos
			}
			if n <= 0 {
				continue
			}
			sched.Steps = append(sched.Steps, Step{
				Kind:   StepIngest,
				Writer: int(r>>16) % cfg.Writers,
				Items:  trace[pos : pos+n],
			})
			pos += n
		}
	}
	return sched
}

// Replay executes a schedule single-threaded on target: each ingest step
// runs on its writer's handle, advances and ticks run in place. It then
// quiesces — every writer flushed and closed, one final advance — so the
// view holds the schedule's entire multiset (drain-barrier semantics).
func Replay(target *Target, sched Schedule) {
	writers := make([]Writer, sched.Writers)
	for i := range writers {
		writers[i] = target.NewWriter()
	}
	for _, st := range sched.Steps {
		switch st.Kind {
		case StepIngest:
			writers[st.Writer].UpdateBatch(st.Items, 1)
		case StepAdvance:
			target.Advance()
		case StepTick:
			if target.Tick != nil {
				target.Tick()
			} else {
				target.Advance()
			}
		}
	}
	for _, w := range writers {
		w.Close()
	}
	target.Advance()
}

// ReplaySequential executes the schedule's operations through a single
// writer in schedule order — the sequential reference: same multiset,
// same tick positions, no interleaving and no mid-stream advances.
func ReplaySequential(target *Target, sched Schedule) {
	w := target.NewWriter()
	for _, st := range sched.Steps {
		switch st.Kind {
		case StepIngest:
			w.UpdateBatch(st.Items, 1)
		case StepTick:
			if target.Tick != nil {
				w.Flush()
				target.Tick()
			}
		}
	}
	w.Close()
	target.Advance()
}

// CheckDeterminism replays sched on two instances from build and asserts
// their envelopes are byte-identical: a schedule pins the topology's
// final state exactly, for every backend including the history-dependent
// conservative-update ones.
func CheckDeterminism(t *testing.T, build func() *Target, sched Schedule) {
	t.Helper()
	a, b := build(), build()
	Replay(a, sched)
	Replay(b, sched)
	pa, err := salsa.Marshal(a.Sketch)
	if err != nil {
		t.Fatalf("marshal replay a: %v", err)
	}
	pb, err := salsa.Marshal(b.Sketch)
	if err != nil {
		t.Fatalf("marshal replay b: %v", err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatalf("same-seed replays diverge: %d vs %d bytes", len(pa), len(pb))
	}
}

// CheckSequentialEquivalence replays sched on one instance and its
// sequential reference on another, then asserts every scheduled item's
// estimate matches after the drain barrier. With exactBytes it also
// asserts the marshaled envelopes are byte-identical — the full
// merge-scheduling-leaves-no-trace guarantee, valid for backends whose
// drain is a pure counter sum (CMS sum-modes, Count Sketch, Distinct;
// not conservative update, whose counters are history-dependent).
func CheckSequentialEquivalence(t *testing.T, build func() *Target, sched Schedule, exactBytes bool) {
	t.Helper()
	concurrent, sequential := build(), build()
	Replay(concurrent, sched)
	ReplaySequential(sequential, sched)
	for _, item := range distinctSorted(sched.Ingested()) {
		got, want := concurrent.Query(item), sequential.Query(item)
		if got != want {
			t.Fatalf("drain-barrier equivalence: item %d estimates %d (interleaved) vs %d (sequential)", item, got, want)
		}
	}
	if !exactBytes {
		return
	}
	pc, err := salsa.Marshal(concurrent.Sketch)
	if err != nil {
		t.Fatalf("marshal interleaved: %v", err)
	}
	ps, err := salsa.Marshal(sequential.Sketch)
	if err != nil {
		t.Fatalf("marshal sequential: %v", err)
	}
	if !bytes.Equal(pc, ps) {
		t.Fatalf("merge scheduling left a byte-level trace: %d vs %d bytes", len(pc), len(ps))
	}
}

// CheckOverestimate asserts the target's post-replay estimates dominate
// the exact multiset counts — the guarantee conservative-update backends
// keep even where exact equivalence does not apply.
func CheckOverestimate(t *testing.T, target *Target, sched Schedule) {
	t.Helper()
	exact := make(map[uint64]int64)
	for _, item := range sched.Ingested() {
		exact[item]++
	}
	for _, item := range distinctSorted(sched.Ingested()) {
		if got, truth := target.Query(item), exact[item]; got < truth {
			t.Fatalf("undercount after drains: item %d estimate %d < exact %d", item, got, truth)
		}
	}
}

// distinctSorted returns the distinct items of a replay in ascending
// order, so harness assertions always visit (and report) items in the
// same order regardless of map iteration.
func distinctSorted(items []uint64) []uint64 {
	uniq := make(map[uint64]struct{}, len(items))
	for _, item := range items {
		uniq[item] = struct{}{}
	}
	out := make([]uint64, 0, len(uniq))
	for item := range uniq {
		out = append(out, item)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HammerConfig shapes a truly concurrent run. The zero value is not
// usable; fill Writers/Batches/Batch/Universe.
type HammerConfig struct {
	Writers  int           // concurrent writer goroutines
	Batches  int           // batches per writer
	Batch    int           // items per batch
	Universe int           // distinct-item bound
	Seed     uint64        // trace seed
	Interval time.Duration // AutoAdvance-style merger cadence (via Advance loop)
	// Monotonic spawns readers asserting per-item estimates never
	// decrease. Leave false for windowed targets (ticks retire data) and
	// Count Sketch (signed noise is not monotone).
	Monotonic bool
	// Tick spawns a rotation goroutine (windowed targets).
	Tick bool
	// Churn makes each writer close and reopen its handle mid-run,
	// exercising slot reuse and adaptive grow/shrink.
	Churn bool
}

// Hammer runs cfg.Writers real goroutines against target with a
// background merger (and optional ticker/readers), then quiesces and
// verifies conservation: Stats().Drained equals the items ingested, and
// Pending returns to zero. Designed to run under -race.
func Hammer(t *testing.T, target *Target, cfg HammerConfig) {
	t.Helper()
	stopMerge := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stopMerge:
				return
			default:
				target.Advance()
				time.Sleep(cfg.Interval)
			}
		}
	}()
	if cfg.Tick && target.Tick != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stopMerge:
					return
				default:
					target.Tick()
					time.Sleep(cfg.Interval * 3)
				}
			}
		}()
	}

	var stopReaders atomic.Bool
	var readers sync.WaitGroup
	if cfg.Monotonic {
		probes := stream.Zipf(64, cfg.Universe, 1.1, cfg.Seed^0x517)
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				last := make(map[uint64]int64, len(probes))
				for !stopReaders.Load() {
					for _, p := range probes {
						got := target.Query(p)
						if prev, ok := last[p]; ok && got < prev {
							t.Errorf("monotonicity violated: item %d estimate fell %d -> %d", p, prev, got)
							stopReaders.Store(true)
							return
						}
						last[p] = got
					}
				}
			}()
		}
	}

	var ingested atomic.Uint64
	var writers sync.WaitGroup
	for wi := 0; wi < cfg.Writers; wi++ {
		writers.Add(1)
		go func(wi int) {
			defer writers.Done()
			trace := stream.Zipf(cfg.Batches*cfg.Batch, cfg.Universe, 0.99, cfg.Seed+uint64(wi))
			w := target.NewWriter()
			for b := 0; b < cfg.Batches; b++ {
				if cfg.Churn && b == cfg.Batches/2 {
					w.Close()
					w = target.NewWriter()
				}
				w.UpdateBatch(trace[b*cfg.Batch:(b+1)*cfg.Batch], 1)
			}
			w.Close()
			ingested.Add(uint64(cfg.Batches * cfg.Batch))
		}(wi)
	}
	writers.Wait()
	close(stopMerge)
	bg.Wait()
	stopReaders.Store(true)
	readers.Wait()

	target.Advance()
	if pending := target.Pending(); pending != 0 {
		t.Fatalf("conservation: %d items still pending after quiesce + advance", pending)
	}
	st := target.Stats()
	want := ingested.Load()
	// Direct drains plus whatever the writers pushed: every ingested item
	// must be accounted for exactly once in the drain odometer.
	if st.Drained != want {
		t.Fatalf("conservation: drained %d items, ingested %d", st.Drained, want)
	}
	if st.Writers != 0 {
		t.Fatalf("slot leak: %d slots still claimed after all writers closed", st.Writers)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
