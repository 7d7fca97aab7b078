package salsad

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"salsa"
	"salsa/internal/stream"
)

// The push path at the shape of the pipeline benchmark's workloads: a
// CMS-SALSA core with 2^14 counters per row and sum merge and 64
// heavy-hitter candidates per frame, which all three share, fed 1024-item
// frames from a Univ2-like source as fanin-mixed's agents are, unless a
// case says otherwise.

func faninSpec() salsa.Spec {
	return salsa.CountMinOf(salsa.Options{Width: 1 << 14, Merge: salsa.MergeSum, Seed: 1})
}

var faninCandidates = func() []uint64 {
	c := make([]uint64, 64)
	for i := range c {
		c[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	return c
}()

func newFaninAgent(tb testing.TB, tr Transport) *Agent {
	tb.Helper()
	ag, err := NewAgent(AgentConfig{
		ID: "edge-00", Spec: faninSpec(), Transport: tr, JitterSeed: 1,
		Candidates: func() []uint64 { return faninCandidates },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return ag
}

// frameFeeder ingests the next n items of a cyclic source per frame.
type frameFeeder struct {
	items  []uint64
	pos, n int
}

// newFrameFeeder feeds 1024-item frames from a Univ2-like source.
func newFrameFeeder() *frameFeeder {
	return &frameFeeder{items: stream.Univ2.Generate(1<<16, 7), n: 1024}
}

func (f *frameFeeder) feed(ag *Agent) {
	for range f.n {
		ag.Ingest(f.items[f.pos])
		f.pos = (f.pos + 1) % len(f.items)
	}
}

// ackTransport acknowledges every frame without delivering it, so only the
// agent's own work runs; check, when set, sees each frame first.
type ackTransport struct {
	ack   Ack
	check func(*Push)
}

func (t *ackTransport) Push(_ context.Context, p *Push) (*Ack, error) {
	if t.check != nil {
		t.check(p)
	}
	t.ack = Ack{Status: StatusApplied, Gen: p.Gen, Seq: p.Seq, Cursor: p.Cursor}
	return &t.ack, nil
}

func (t *ackTransport) Resume(context.Context, string) (*ResumeInfo, error) {
	return &ResumeInfo{}, nil
}

// allocsPerRun runs op once, so pooled encoders and lazily built
// buffers exist, then returns what its steady state allocates per run.
func allocsPerRun(t *testing.T, op func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	op()
	return testing.AllocsPerRun(20, op)
}

func TestZeroAllocFrozenEncode(t *testing.T) {
	ag := newFaninAgent(t, &ackTransport{})
	newFrameFeeder().feed(ag)
	if err := ag.cutFrame(ag); err != nil {
		t.Fatal(err)
	}
	if n := allocsPerRun(t, func() { _, _ = ag.frame.Encode() }); n != 0 {
		t.Fatalf("Encode of a frozen frame: %v allocs, want 0", n)
	}
}

func TestZeroAllocMarshalAllocatesOnce(t *testing.T) {
	cm := salsa.MustBuild(faninSpec())
	cm.UpdateBatch(stream.Univ2.Generate(1<<14, 3), 1)
	if n := allocsPerRun(t, func() { _, _ = salsa.Marshal(cm) }); n != 1 {
		t.Fatalf("salsa.Marshal of a d=4, w=2^14 CountMin: %v allocs, want 1", n)
	}
}

// TestZeroAllocDecodePush pins a steady-state DecodePush of a fanin-shape
// delta frame to the allocations it returns: the Push, its agent id, its
// candidates and its envelope. The inflater's tables and the run buffer
// live in the pooled decoder.
func TestZeroAllocDecodePush(t *testing.T) {
	p := &Push{Agent: "edge-00", Gen: 1, Seq: 2, Candidates: faninCandidates,
		Envelope: deltaEnvelope(t, stream.Univ2, 1<<18, 65_536, 1024)}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n := allocsPerRun(t, func() { _, _ = DecodePush(enc, 0) }); n > 4 {
		t.Fatalf("steady-state DecodePush: %v allocs, want at most 4", n)
	}
}

// pushOnceAllocBudget bounds the allocations of one steady-state PushOnce
// at the fanin-mixed shape: 3 measured with go1.24 on linux/amd64 (the
// delta's envelope, the frozen Push and its wire bytes), plus one of
// headroom. The cut copies the live sketch into recycled sketches, so it
// allocates none.
const pushOnceAllocBudget = 4

func TestZeroAllocPushOnceBudget(t *testing.T) {
	ag := newFaninAgent(t, &ackTransport{})
	f := newFrameFeeder()
	ctx := context.Background()
	n := allocsPerRun(t, func() {
		f.feed(ag)
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if n > pushOnceAllocBudget {
		t.Fatalf("steady-state PushOnce: %v allocs, budget %d", n, pushOnceAllocBudget)
	}
}

// TestEncodeMatchesFreshWriter pins the pooled encoder to the stream a new
// flate.NewWriter(flate.HuffmanOnly) writes over the sections splitBytes
// gives, for an agent's frozen frames of growing size and for fresh
// encodes between them, so every encode after the first reuses a pooled
// writer.
func TestEncodeMatchesFreshWriter(t *testing.T) {
	check := func(p *Push) {
		t.Helper()
		if p.Heartbeat() {
			return
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		runs, lits := splitBytes(p.Envelope)
		ref := huffmanSections(t, runs, lits)
		head := p.headerLen()
		if !bytes.Equal(enc[head:], ref) || binary.LittleEndian.Uint32(enc[head-8:]) != uint32(len(runs)) ||
			binary.LittleEndian.Uint32(enc[head-4:]) != uint32(len(ref)) {
			t.Fatalf("%s seq %d: the pooled encoder's stream differs from a new writer's", p.Agent, p.Seq)
		}
	}
	ag := newFaninAgent(t, &ackTransport{check: check})
	f := newFrameFeeder()
	ctx := context.Background()
	for i := 1; i <= 6; i++ {
		for j := 0; j < i; j++ {
			f.feed(ag)
		}
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
		check(&Push{Agent: "full", Gen: 1, Seq: uint64(i), Envelope: marshalState(t, ag.Sketch())})
	}
}

// pushShapes are the pipeline benchmark's workloads as one agent sees
// them: its source, the items it pushes during set-up (prefill) and the
// items in each timed frame. relay-tree agents read a CH16 mix there; the
// CH16 trace alone stands in for it here.
var pushShapes = []struct {
	name              string
	ds                stream.Dataset
	traceLen          int
	prefill, perFrame int
}{
	{"fanin-mixed", stream.Univ2, 1 << 16, 0, 1024},
	{"edge-ingest", stream.NY18, 1 << 22, 100_000, 100_000},
	{"relay-tree", stream.CH16, 1 << 17, 8192, 8192},
}

// BenchmarkPushPath times one frame through the whole push path at each
// pipeline workload's shape: the agent's delta cut and freeze, then
// Encode, DecodePush and ApplyPush, which directTransport runs in
// process. The ingest of each frame's items is not timed.
func BenchmarkPushPath(b *testing.B) {
	for _, sh := range pushShapes {
		b.Run(sh.name, func(b *testing.B) {
			agg, err := NewAggregator(AggregatorConfig{Spec: faninSpec()})
			if err != nil {
				b.Fatal(err)
			}
			ag := newFaninAgent(b, &directTransport{agg: agg})
			f := &frameFeeder{items: sh.ds.Generate(sh.traceLen, 7), n: sh.prefill}
			ctx := context.Background()
			if sh.prefill > 0 {
				f.feed(ag)
				if err := ag.PushOnce(ctx); err != nil {
					b.Fatal(err)
				}
			}
			f.n = sh.perFrame
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.feed(ag)
				b.StartTimer()
				if err := ag.PushOnce(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
