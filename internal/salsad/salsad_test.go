package salsad

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"salsa"
	"salsa/internal/stream"
)

func testSpec() salsa.Spec {
	return salsa.CountMinOf(salsa.Options{Width: 1 << 8, Merge: salsa.MergeSum, Seed: 11})
}

func newTestAggregator(t *testing.T, cfg AggregatorConfig) *Aggregator {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = testSpec()
	}
	a, err := NewAggregator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func marshalState(t testing.TB, s salsa.Sketch) []byte {
	t.Helper()
	blob, err := salsa.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// envelopeFor builds a marshaled test-spec sketch holding the given items.
func envelopeFor(t testing.TB, items ...uint64) []byte {
	t.Helper()
	s := salsa.MustBuild(testSpec())
	for _, it := range items {
		s.Update(it, 1)
	}
	return marshalState(t, s)
}

// --- wire format ---

func TestPushEncodeDecodeRoundTrip(t *testing.T) {
	p := &Push{
		Agent:      "edge-7",
		Gen:        3,
		Seq:        41,
		Cursor:     123456,
		Candidates: []uint64{9, 5, 9000000000},
		Envelope:   envelopeFor(t, 1, 2, 3, 3, 3),
	}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("Encode is not deterministic; retries would not be byte-identical")
	}
	got, err := DecodePush(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Agent != p.Agent || got.Gen != p.Gen || got.Seq != p.Seq || got.Cursor != p.Cursor {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Candidates) != 3 || got.Candidates[2] != 9000000000 {
		t.Fatalf("candidates mismatch: %v", got.Candidates)
	}
	if !bytes.Equal(got.Envelope, p.Envelope) {
		t.Fatal("envelope did not round-trip")
	}
}

// TestFrozenPushCopyEncodesAfresh checks that only a frozen Push itself
// returns its stored bytes: a copy whose fields have since changed encodes
// what it now holds.
func TestFrozenPushCopyEncodesAfresh(t *testing.T) {
	p := &Push{Agent: "edge-7", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 1, 2)}
	if err := p.freeze(); err != nil {
		t.Fatal(err)
	}
	q := *p
	q.Seq = 2
	enc, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePush(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 {
		t.Fatalf("a changed copy of a frozen frame encoded seq %d, want 2", got.Seq)
	}
}

func TestPushHeartbeatRoundTrip(t *testing.T) {
	p := &Push{Agent: "hb", Gen: 1, Seq: 7, Cursor: 99, Flags: FlagHeartbeat}
	enc, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePush(enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Heartbeat() || got.Envelope != nil || got.Seq != 7 {
		t.Fatalf("heartbeat mismatch: %+v", got)
	}
	// Heartbeats must not carry data.
	bad := &Push{Agent: "hb", Flags: FlagHeartbeat, Envelope: []byte{1}}
	if _, err := bad.Encode(); err == nil {
		t.Fatal("Encode accepted a heartbeat with an envelope")
	}
}

func TestPushEncodeRejects(t *testing.T) {
	if _, err := (&Push{Agent: ""}).Encode(); err == nil {
		t.Fatal("empty agent id accepted")
	}
	if _, err := (&Push{Agent: string(make([]byte, MaxAgentIDLen+1))}).Encode(); err == nil {
		t.Fatal("oversized agent id accepted")
	}
	if _, err := (&Push{Agent: "a", Candidates: make([]uint64, MaxPushCandidates+1)}).Encode(); err == nil {
		t.Fatal("oversized candidate list accepted")
	}
}

func TestDecodePushMalformed(t *testing.T) {
	valid, err := (&Push{Agent: "a", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 4)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte{0, 0, 0, 0}, valid[4:]...),
		"bad version": append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"bad flags":   append(append([]byte{}, valid[:5]...), append([]byte{0x80}, valid[6:]...)...),
		"truncated":   valid[:len(valid)-3],
		"trailing":    append(append([]byte{}, valid...), 0xff),
	}
	for name, data := range cases {
		if _, err := DecodePush(data, 0); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
		}
	}
	// Corrupt coded body: flip a byte inside the deflate stream.
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, err := DecodePush(corrupt, 0); !errors.Is(err, ErrBadFrame) {
		t.Errorf("corrupt body: got %v, want ErrBadFrame", err)
	}
}

// TestDecodePushTooLarge pins the size contract: the declared
// envelope length is checked against the cap and reported as a typed
// *TooLargeError before any decoding happens.
func TestDecodePushTooLarge(t *testing.T) {
	env := envelopeFor(t, 1, 2, 3)
	enc, err := (&Push{Agent: "a", Gen: 1, Seq: 1, Envelope: env}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	var tle *TooLargeError
	if _, err := DecodePush(enc, len(env)-1); !errors.As(err, &tle) {
		t.Fatalf("got %v, want *TooLargeError", err)
	}
	if tle.Size != len(env) || tle.Limit != len(env)-1 {
		t.Fatalf("TooLargeError fields: %+v", tle)
	}
	// A frame lying about its length (huge declared rawLen, no actual
	// payload) must be caught from the declared value alone.
	lie := append([]byte{}, enc...)
	// rawLen field sits 12 bytes before the coded body; find it by
	// reconstructing the offset: header(4+1+1) + idlen(2)+id + 24 + cand(2).
	off := 4 + 1 + 1 + 2 + 1 + 24 + 2
	binary.LittleEndian.PutUint32(lie[off:], 1<<30)
	if _, err := DecodePush(lie, 1<<20); !errors.As(err, &tle) {
		t.Fatalf("declared-length lie: got %v, want *TooLargeError", err)
	}
	if tle.Size != 1<<30 {
		t.Fatalf("TooLargeError.Size = %d, want declared 1<<30", tle.Size)
	}
}

// --- aggregator state machine ---

func push(t *testing.T, a *Aggregator, p *Push) *Ack {
	t.Helper()
	ack, err := a.ApplyPush(p)
	if err != nil {
		t.Fatalf("ApplyPush(%s g%d s%d): %v", p.Agent, p.Gen, p.Seq, err)
	}
	return ack
}

func queryOne(t *testing.T, a *Aggregator, item uint64) int64 {
	t.Helper()
	est, err := a.Query([]uint64{item})
	if err != nil {
		t.Fatal(err)
	}
	return est[0]
}

func TestAggregatorIdempotency(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})

	d1 := &Push{Agent: "e1", Gen: 1, Seq: 1, Cursor: 10, Envelope: envelopeFor(t, 7, 7, 7)}
	if ack := push(t, a, d1); ack.Status != StatusApplied {
		t.Fatalf("first frame: %+v", ack)
	}
	if got := queryOne(t, a, 7); got != 3 {
		t.Fatalf("after frame 1: item 7 = %d, want 3", got)
	}

	// Exact duplicate: acknowledged, never double-counted.
	for i := 0; i < 3; i++ {
		if ack := push(t, a, d1); ack.Status != StatusDuplicate {
			t.Fatalf("dup %d: %+v", i, ack)
		}
	}
	if got := queryOne(t, a, 7); got != 3 {
		t.Fatalf("after dups: item 7 = %d, want 3", got)
	}

	// Next in sequence applies.
	d2 := &Push{Agent: "e1", Gen: 1, Seq: 2, Cursor: 20, Envelope: envelopeFor(t, 7, 8)}
	if ack := push(t, a, d2); ack.Status != StatusApplied || ack.Seq != 2 {
		t.Fatalf("frame 2: %+v", ack)
	}
	if got := queryOne(t, a, 7); got != 4 {
		t.Fatalf("after frame 2: item 7 = %d, want 4", got)
	}

	// Replayed older frame after progress: still a duplicate, still inert.
	if ack := push(t, a, d1); ack.Status != StatusDuplicate {
		t.Fatalf("late dup: %+v", ack)
	}
	if got := queryOne(t, a, 7); got != 4 {
		t.Fatal("late duplicate changed state")
	}

	// Gap: seq 4 when 3 is expected → resync demanded, nothing applied.
	gap := &Push{Agent: "e1", Gen: 1, Seq: 4, Envelope: envelopeFor(t, 9)}
	if ack := push(t, a, gap); ack.Status != StatusResync || ack.Seq != 2 {
		t.Fatalf("gap: %+v", ack)
	}
	if got := queryOne(t, a, 9); got != 0 {
		t.Fatal("gapped frame leaked into state")
	}

	// Unknown agent starting above seq 1 → resync.
	if ack := push(t, a, &Push{Agent: "new", Gen: 1, Seq: 5, Envelope: envelopeFor(t, 1)}); ack.Status != StatusResync {
		t.Fatalf("unknown agent mid-sequence: %+v", ack)
	}

	// Stale generation (zombie incarnation) → resync, inert.
	push(t, a, &Push{Agent: "e1", Gen: 3, Seq: 1, Flags: FlagFull, Envelope: envelopeFor(t, 7, 7, 7, 7)})
	if ack := push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 3, Envelope: envelopeFor(t, 50)}); ack.Status != StatusResync {
		t.Fatalf("zombie gen: %+v", ack)
	}
	if got := queryOne(t, a, 50); got != 0 {
		t.Fatal("zombie frame leaked into state")
	}

	st := a.Stats()
	if st.Applied == 0 || st.Duplicates != 4 || st.Resyncs != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAggregatorGenerations pins the two rejoin semantics: a new
// generation without FlagFull merges into the prior contribution
// (crash-rejoin — shipped data survives), while FlagFull replaces
// everything (the agent vouches for complete history).
func TestAggregatorGenerations(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 1, 1)})

	// Crash-rejoin: gen 2, additive. The 2 old counts stay.
	if ack := push(t, a, &Push{Agent: "e1", Gen: 2, Seq: 1, Envelope: envelopeFor(t, 1)}); ack.Status != StatusApplied || ack.Gen != 2 {
		t.Fatalf("rejoin: %+v", ack)
	}
	if got := queryOne(t, a, 1); got != 3 {
		t.Fatalf("after additive rejoin: item 1 = %d, want 3", got)
	}

	// Full resync at gen 3: replaces both prior generations.
	push(t, a, &Push{Agent: "e1", Gen: 3, Seq: 1, Flags: FlagFull, Envelope: envelopeFor(t, 1, 1, 1, 1, 1)})
	if got := queryOne(t, a, 1); got != 5 {
		t.Fatalf("after full resync: item 1 = %d, want 5", got)
	}

	// A mid-generation FlagFull also replaces what earlier generations shipped.
	push(t, a, &Push{Agent: "e1", Gen: 3, Seq: 2, Flags: FlagFull, Envelope: envelopeFor(t, 1)})
	if got := queryOne(t, a, 1); got != 1 {
		t.Fatalf("after mid-gen full: item 1 = %d, want 1", got)
	}
}

func TestAggregatorHeartbeatAndLease(t *testing.T) {
	clock := time.Unix(1000, 0)
	a := newTestAggregator(t, AggregatorConfig{
		LeaseTTL: 10 * time.Second,
		Now:      func() time.Time { return clock },
	})
	// Heartbeat from an unknown agent: nothing to renew → resync.
	if ack := push(t, a, &Push{Agent: "e1", Gen: 1, Flags: FlagHeartbeat}); ack.Status != StatusResync {
		t.Fatalf("unknown heartbeat: %+v", ack)
	}
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 2)})

	clock = clock.Add(8 * time.Second)
	if ack := push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Flags: FlagHeartbeat}); ack.Status != StatusApplied {
		t.Fatalf("heartbeat: %+v", ack)
	}
	if ags := a.Agents(); len(ags) != 1 || !ags[0].Alive {
		t.Fatalf("agent should be alive: %+v", ags)
	}

	// Silence past the TTL: reported dead, contribution retained.
	clock = clock.Add(11 * time.Second)
	if ags := a.Agents(); ags[0].Alive {
		t.Fatal("lease should have expired")
	}
	if got := queryOne(t, a, 2); got != 1 {
		t.Fatal("dead agent's contribution was dropped")
	}
	// A heartbeat from a stale generation cannot renew.
	if ack := push(t, a, &Push{Agent: "e1", Gen: 9, Flags: FlagHeartbeat}); ack.Status != StatusResync {
		t.Fatalf("stale-gen heartbeat: %+v", ack)
	}
}

func TestAggregatorRejectsIncompatible(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	// Wrong geometry.
	wrong := salsa.MustBuild(salsa.CountMinOf(salsa.Options{Width: 1 << 9, Merge: salsa.MergeSum, Seed: 11}))
	if _, err := a.ApplyPush(&Push{Agent: "x", Gen: 1, Seq: 1, Envelope: marshalState(t, wrong)}); err == nil {
		t.Fatal("mismatched geometry accepted")
	}
	// Undecodable envelope.
	if _, err := a.ApplyPush(&Push{Agent: "x", Gen: 1, Seq: 1, Envelope: []byte("junk")}); err == nil {
		t.Fatal("junk envelope accepted")
	}
	// Oversized (decoded) envelope → typed error.
	small := newTestAggregator(t, AggregatorConfig{MaxEnvelopeBytes: 16})
	var tle *TooLargeError
	if _, err := small.ApplyPush(&Push{Agent: "x", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 1)}); !errors.As(err, &tle) {
		t.Fatalf("got %v, want *TooLargeError", err)
	}
	if small.Stats().Rejected == 0 {
		t.Fatal("rejections not counted")
	}
	// Non-delta-capable aggregator topology is refused at construction.
	var de *salsa.DeltaError
	if _, err := NewAggregator(AggregatorConfig{
		Spec: salsa.CountMinOf(salsa.Options{Width: 1 << 8}), // MergeMax default
	}); !errors.As(err, &de) {
		t.Fatalf("max-merge aggregator: got %v, want *salsa.DeltaError", err)
	}
}

// TestApplyPushRejectsIncompatibleFullFrame checks continuation frames as
// first contacts are checked: an incompatible envelope that would replace
// an agent's contribution (FlagFull) or become its first one is rejected
// with the typed error, and the table keeps answering reads.
func TestApplyPushRejectsIncompatibleFullFrame(t *testing.T) {
	narrow := salsa.Options{Width: 1 << 10, Merge: salsa.MergeSum, Seed: 11}
	wide := narrow
	wide.Width = 1 << 11
	env := func(opt salsa.Options, items ...uint64) []byte {
		s := salsa.MustBuild(salsa.CountMinOf(opt))
		for _, it := range items {
			s.Update(it, 1)
		}
		return marshalState(t, s)
	}
	a := newTestAggregator(t, AggregatorConfig{Spec: salsa.CountMinOf(narrow)})
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Candidates: []uint64{5}, Envelope: env(narrow, 5, 5)})
	// An entry without a current contribution adopts its next frame as is.
	a.agents["e2"] = &agentEntry{gen: 1, lastSeq: 1}

	for _, p := range []*Push{
		{Agent: "e1", Gen: 1, Seq: 2, Flags: FlagFull, Envelope: env(wide, 5)},
		{Agent: "e2", Gen: 1, Seq: 2, Envelope: env(wide, 5)},
	} {
		var de *salsa.DeltaError
		if _, err := a.ApplyPush(p); !errors.As(err, &de) {
			t.Fatalf("%s seq %d: got %v, want *salsa.DeltaError", p.Agent, p.Seq, err)
		}
	}
	if st := a.Stats(); st.Rejected != 2 || st.Applied != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := queryOne(t, a, 5); got != 2 {
		t.Fatalf("item 5 = %d after the rejected frames, want 2", got)
	}
	top, err := a.Top(1)
	if err != nil || len(top) != 1 || top[0].Item != 5 || top[0].Count != 2 {
		t.Fatalf("Top(1) after the rejected frames = %v, %v", top, err)
	}
}

// TestApplyPushRejectsImpossibleCompactLayout pushes, as a FlagFull frame,
// a compact-encoding envelope whose first group number is rewritten to
// a₅−1: one level-5 counter in a row of 8-bit counters, whose highest
// level is 3, which no merge kernel can widen. ApplyPush must reject it,
// and Query and Top must keep answering from the contribution before it.
func TestApplyPushRejectsImpossibleCompactLayout(t *testing.T) {
	opt := salsa.Options{Width: 1 << 10, Merge: salsa.MergeSum, Seed: 11, CompactEncoding: true}
	a := newTestAggregator(t, AggregatorConfig{Spec: salsa.CountMinOf(opt)})
	s := salsa.MustBuild(salsa.CountMinOf(opt))
	s.Update(5, 2)
	env := marshalState(t, s)
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Candidates: []uint64{5}, Envelope: env})

	// The first row payload: its 16-byte header (magic 0x5a15a001, kind,
	// bits, policy, compact byte, width), its counter words and then its
	// layout words, each block after a word count.
	row := bytes.Index(env, []byte{0x01, 0xa0, 0x15, 0x5a})
	if row < 0 || env[row+7] != 1 {
		t.Fatal("no compact row payload in the envelope")
	}
	counters := int(binary.LittleEndian.Uint64(env[row+16:]))
	layout := row + 16 + 8 + 8*counters + 8
	bad := slices.Clone(env)
	word := binary.LittleEndian.Uint64(bad[layout:])
	binary.LittleEndian.PutUint64(bad[layout:], word&^(1<<19-1)|(458330-1))
	if _, err := salsa.Unmarshal(bad); err == nil {
		t.Fatal("the rewritten envelope decodes")
	}
	if _, err := a.ApplyPush(&Push{Agent: "e1", Gen: 1, Seq: 2, Flags: FlagFull, Envelope: bad}); err == nil {
		t.Fatal("ApplyPush acknowledged a level-5 counter in an 8-bit compact row")
	}
	if st := a.Stats(); st.Rejected != 1 || st.Applied != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if got := queryOne(t, a, 5); got != 2 {
		t.Fatalf("item 5 = %d after the rejected frame, want 2", got)
	}
	top, err := a.Top(1)
	if err != nil || len(top) != 1 || top[0].Item != 5 || top[0].Count != 2 {
		t.Fatalf("Top(1) after the rejected frame = %v, %v", top, err)
	}
}

func TestAggregatorTopCandidates(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{MaxCandidates: 2})
	env := envelopeFor(t, 5, 5, 5, 6, 6, 7)
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Candidates: []uint64{5, 6, 7}, Envelope: env})
	top, err := a.Top(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 { // pool capped at 2; the third candidate was dropped
		t.Fatalf("top: %+v", top)
	}
	if top[0].Item != 5 || top[0].Count != 3 {
		t.Fatalf("top[0]: %+v", top[0])
	}
	if a.Stats().CandidatesDropped != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
}

// TestAggregatorSaturatesPastMaxInt64 pins that a CountMin estimate at or
// above 2^63 answers MaxInt64 instead of wrapping negative, so Top keeps
// the heaviest item rather than cutting it as a non-positive count.
func TestAggregatorSaturatesPastMaxInt64(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	env := weightedEnvelope(t, 1, 1<<62, 1, 1<<62, 1, 1<<62, 2, 5, 3, 7)
	push(t, a, &Push{Agent: "e1", Gen: 1, Seq: 1, Candidates: []uint64{1, 2, 3}, Envelope: env})
	got, err := a.Query([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{math.MaxInt64, 5, 7}; !slices.Equal(got, want) {
		t.Fatalf("Query = %v, want %v", got, want)
	}
	top, err := a.Top(10)
	if err != nil {
		t.Fatal(err)
	}
	want := []salsa.ItemCount{{Item: 1, Count: math.MaxInt64}, {Item: 3, Count: 7}, {Item: 2, Count: 5}}
	if !slices.Equal(top, want) {
		t.Fatalf("Top(10) = %v, want %v", top, want)
	}
}

// --- agent push loop ---

// directTransport applies frames straight to an in-process aggregator,
// optionally failing the first failN deliveries of each frame.
type directTransport struct {
	agg   *Aggregator
	failN int
	seen  map[string]int
}

func (d *directTransport) Push(ctx context.Context, p *Push) (*Ack, error) {
	// Frames must survive an encode/decode cycle even in-process, so the
	// tests exercise the full wire path.
	enc, err := p.Encode()
	if err != nil {
		return nil, err
	}
	q, err := DecodePush(enc, d.agg.MaxEnvelopeBytes())
	if err != nil {
		return nil, err
	}
	if d.failN > 0 {
		if d.seen == nil {
			d.seen = make(map[string]int)
		}
		key := string(enc[:16]) // header incl. flags+idlen; good enough per frame
		if d.seen[key] < d.failN {
			d.seen[key]++
			return nil, errors.New("injected network failure")
		}
	}
	return d.agg.ApplyPush(q)
}

func (d *directTransport) Resume(ctx context.Context, agent string) (*ResumeInfo, error) {
	info := d.agg.Resume(agent)
	return &info, nil
}

func newTestAgent(t *testing.T, cfg AgentConfig) *Agent {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = testSpec()
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(time.Duration) {}
	}
	ag, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ag
}

func TestAgentDeltaCycle(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	ag := newTestAgent(t, AgentConfig{ID: "edge", Transport: &directTransport{agg: agg}})
	ctx := context.Background()

	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			ag.Ingest(uint64(i % 13))
		}
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !ag.Synced() {
			t.Fatalf("round %d: not synced after successful push", round)
		}
	}
	// The aggregator's merged state must match the agent's live sketch
	// byte-for-byte: deltas reassemble exactly.
	got, err := agg.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	core, err := salsa.DeltaCore(ag.Sketch())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marshalState(t, core)) {
		t.Fatal("aggregator diverged from agent after 5 delta rounds")
	}
	// Nothing new → heartbeat, and the lease is renewed.
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if ag.Stats().Heartbeats != 1 || agg.Stats().Heartbeats != 1 {
		t.Fatalf("heartbeat not exchanged: agent %+v agg %+v", ag.Stats(), agg.Stats())
	}
}

func TestAgentRetryBackoff(t *testing.T) {
	for _, role := range senderRoles {
		t.Run(role, func(t *testing.T) {
			agg := newTestAggregator(t, AggregatorConfig{})
			var slept []time.Duration
			s, tr := newSender(t, role, agg, AgentConfig{
				ID:          "edge",
				MaxAttempts: 4,
				BackoffBase: 100 * time.Millisecond,
				BackoffCap:  time.Second,
				Sleep:       func(d time.Duration) { slept = append(slept, d) },
			}, 42)
			tr.failN = 2
			if err := s.PushOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if len(slept) != 2 {
				t.Fatalf("expected 2 backoff sleeps, got %v", slept)
			}
			// Jittered exponential: sleep n ∈ [d/2, d) for d = base·2ⁿ.
			for i, d := range slept {
				want := 100 * time.Millisecond << uint(i)
				if d < want/2 || d >= want {
					t.Fatalf("backoff %d = %v outside [%v, %v)", i, d, want/2, want)
				}
			}
			if st := s.Stats(); st.Retries != 2 || st.Attempts != 3 {
				t.Fatalf("stats: %+v", st)
			}
			if got := queryOne(t, agg, 42); got != 1 {
				t.Fatalf("item 42 = %d after retried push, want 1", got)
			}
		})
	}
}

func TestAgentPushFailureKeepsFrameFrozen(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	tr := &directTransport{agg: agg, failN: 1000}
	ag := newTestAgent(t, AgentConfig{ID: "edge", Transport: tr, MaxAttempts: 2})

	ag.Ingest(1)
	err := ag.PushOnce(context.Background())
	if !errors.Is(err, ErrPushFailed) {
		t.Fatalf("got %v, want ErrPushFailed", err)
	}
	if ag.Synced() {
		t.Fatal("agent claims synced with a frozen unacked frame")
	}
	frozen := ag.frame
	frozenEnc, _ := frozen.Encode()

	// Traffic during the outage accumulates in the live sketch; the frozen
	// frame must not change — that is what makes the retry byte-identical.
	for i := 0; i < 50; i++ {
		ag.Ingest(2)
	}
	if ag.frame != frozen {
		t.Fatal("frozen frame was replaced during outage")
	}
	if enc, _ := ag.frame.Encode(); !bytes.Equal(enc, frozenEnc) {
		t.Fatal("frozen frame bytes changed during outage")
	}

	// Heal; the frozen frame lands, then ONE more frame coalesces the
	// entire outage.
	tr.failN = 0
	if err := ag.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ag.Synced() {
		t.Fatal("outage traffic cannot be synced by the frozen frame alone")
	}
	if err := ag.PushOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ag.Synced() {
		t.Fatal("one post-heal frame must coalesce the whole outage")
	}
	if got := queryOne(t, agg, 2); got != 50 {
		t.Fatalf("item 2 = %d, want 50", got)
	}
}

// TestAgentResyncAfterAggregatorRestart drives the full resync path: the
// aggregator loses all state (fresh instance), the agent's next push is
// answered with resync, and the agent re-establishes itself with a
// full-state snapshot under a fresh generation — converging byte-exactly.
func TestAgentResyncAfterAggregatorRestart(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	tr := &directTransport{agg: agg}
	ag := newTestAgent(t, AgentConfig{ID: "edge", Transport: tr})
	ctx := context.Background()

	for i := 0; i < 200; i++ {
		ag.Ingest(uint64(i % 7))
	}
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}

	// Aggregator crash: all per-agent state gone.
	tr.agg = newTestAggregator(t, AggregatorConfig{})

	for i := 0; i < 100; i++ {
		ag.Ingest(uint64(i % 7))
	}
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if ag.Stats().Resyncs != 1 {
		t.Fatalf("stats: %+v", ag.Stats())
	}
	if ag.Gen() < 2 {
		t.Fatalf("resync must move to a fresh generation, got %d", ag.Gen())
	}
	if !ag.Synced() {
		t.Fatal("full snapshot should cover everything ingested")
	}
	got, err := tr.agg.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	core, _ := salsa.DeltaCore(ag.Sketch())
	if !bytes.Equal(got, marshalState(t, core)) {
		t.Fatal("post-resync aggregator diverged from agent")
	}
}

// TestAgentCrashRestartResume models the agent process dying and coming
// back: Resume hands it the next generation and the replay cursor, the
// upstream is re-read from there, and the cluster total stays exact.
func TestAgentCrashRestartResume(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	tr := &directTransport{agg: agg}
	ctx := context.Background()
	source := make([]uint64, 500)
	for i := range source {
		source[i] = uint64(i % 11)
	}

	ag := newTestAgent(t, AgentConfig{ID: "edge", Transport: tr})
	for _, x := range source[:300] {
		ag.Ingest(x)
	}
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// 80 more items ingested but never shipped — lost with the crash.
	for _, x := range source[300:380] {
		ag.Ingest(x)
	}

	// Crash. Restart: ask the aggregator where to resume.
	gen, cursor, err := Resume(ctx, tr, "edge")
	if err != nil {
		t.Fatal(err)
	}
	if cursor != 300 {
		t.Fatalf("resume cursor = %d, want 300 (last acked cut)", cursor)
	}
	ag2 := newTestAgent(t, AgentConfig{
		ID: "edge", Transport: tr,
		Generation: gen, StartCursor: cursor,
	})
	// Re-ingest the un-acked tail from the replayable source.
	for _, x := range source[cursor:] {
		ag2.Ingest(x)
	}
	if err := ag2.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if !ag2.Synced() {
		t.Fatal("restarted agent not synced")
	}
	// Exactness: every source item counted exactly once.
	ref := salsa.MustBuild(testSpec())
	for _, x := range source {
		ref.Update(x, 1)
	}
	got, err := agg.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marshalState(t, ref)) {
		t.Fatal("crash-restart lost or double-counted items")
	}
}

func TestNewAgentRejects(t *testing.T) {
	tr := &directTransport{}
	for _, c := range []struct {
		name, field string
		cfg         AgentConfig
	}{
		{"empty id", "ID", AgentConfig{ID: "", Spec: testSpec(), Transport: tr}},
		{"nil spec", "Spec", AgentConfig{ID: "a", Transport: tr}},
		{"nil transport", "Transport", AgentConfig{ID: "a", Spec: testSpec()}},
	} {
		var ce *ConfigError
		if _, err := NewAgent(c.cfg); !errors.As(err, &ce) || ce.Field != c.field {
			t.Fatalf("%s: got %v, want a *ConfigError for %s", c.name, err, c.field)
		}
	}
	var de *salsa.DeltaError
	if _, err := NewAgent(AgentConfig{
		ID: "a", Transport: tr,
		Spec: salsa.Windowed(testSpec(), 4, 100),
	}); !errors.As(err, &de) {
		t.Fatalf("windowed agent: got %v, want *salsa.DeltaError", err)
	}
}

// TestAgentEpochTopology runs the delta cycle through an EpochShardedBy
// ingest layer: PushOnce must cut the epoch before snapshotting.
func TestAgentEpochTopology(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	ag := newTestAgent(t, AgentConfig{
		ID:        "edge",
		Spec:      salsa.EpochShardedBy(testSpec(), 2),
		Transport: &directTransport{agg: agg},
	})
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		for i := 0; i < 300; i++ {
			ag.Ingest(uint64(i % 17))
		}
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !ag.Synced() {
		t.Fatal("epoch agent not synced")
	}
	if got := queryOne(t, agg, 3); got != 3*300/17+1 {
		// 300 items over 17 residues: residue 3 appears ceil- or floor-many
		// times; compute exactly instead.
		want := int64(0)
		for i := 0; i < 300; i++ {
			if i%17 == 3 {
				want++
			}
		}
		want *= 3
		if got != want {
			t.Fatalf("item 3 = %d, want %d", got, want)
		}
	}
}

// TestAgentShipsEpochWriters feeds an epoch agent through a writer taken
// from its sketch on another goroutine, as AgentConfig.Spec allows: what
// the writer flushes must reach the aggregator, and Synced must report
// false until it has.
func TestAgentShipsEpochWriters(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	ag := newTestAgent(t, AgentConfig{
		ID:        "edge",
		Spec:      salsa.EpochShardedBy(testSpec(), 2),
		Transport: &directTransport{agg: agg},
	})
	ctx := context.Background()
	ag.Ingest(1)
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	local := ag.Sketch().(*salsa.EpochCountMin)
	w := local.NewWriter(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			w.Increment(7)
		}
		w.Flush()
	}()
	<-done
	if ag.Synced() {
		t.Fatal("Synced with 100 flushed items unshipped")
	}
	for i := 0; i < 3; i++ {
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !ag.Synced() {
		t.Fatal("not synced after three pushes")
	}
	if got, want := queryOne(t, agg, 7), int64(local.Query(7)); got != 100 || want != 100 {
		t.Fatalf("item 7: root answers %d, local sketch %d, want 100", got, want)
	}
	// The agent's own items wait in its writer's buffer until a cut.
	ag.Ingest(2)
	if ag.Synced() {
		t.Fatal("Synced with an ingested item unshipped")
	}
}

// --- HTTP layer ---

// flakyRT fails the first delivery of every distinct request body, then
// passes it through: one injected retry per frame.
type flakyRT struct {
	next http.RoundTripper
	seen map[string]bool
}

func (f *flakyRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil && r.Method == http.MethodPost {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
		key := buf.String()
		if f.seen == nil {
			f.seen = make(map[string]bool)
		}
		if !f.seen[key] {
			f.seen[key] = true
			return nil, errors.New("injected connection reset")
		}
		r.Body = io_NopCloser(bytes.NewReader(buf.Bytes()))
	}
	return f.next.RoundTrip(r)
}

// io_NopCloser avoids importing io just for NopCloser in this test file.
func io_NopCloser(r *bytes.Reader) *nopCloser { return &nopCloser{r} }

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }

func TestHTTPEndToEnd(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	srv := httptest.NewServer(Handler(agg))
	defer srv.Close()

	tr := &HTTPTransport{
		Base:   srv.URL,
		Client: &http.Client{Transport: &flakyRT{next: http.DefaultTransport}},
	}
	ag := newTestAgent(t, AgentConfig{ID: "edge-http", Transport: tr})
	ctx := context.Background()

	for i := 0; i < 500; i++ {
		ag.Ingest(uint64(i % 5))
	}
	if err := ag.PushOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if ag.Stats().Retries == 0 {
		t.Fatal("the injected connection reset should have forced a retry")
	}
	if !ag.Synced() {
		t.Fatal("not synced over HTTP")
	}

	// Snapshot over HTTP is byte-identical to the agent's state.
	resp, err := http.Get(srv.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	blob.ReadFrom(resp.Body)
	resp.Body.Close()
	core, _ := salsa.DeltaCore(ag.Sketch())
	if !bytes.Equal(blob.Bytes(), marshalState(t, core)) {
		t.Fatal("HTTP snapshot diverged")
	}

	// Resume round-trips through the HTTP transport.
	gen, cursor, err := Resume(ctx, tr, "edge-http")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || cursor != 500 {
		t.Fatalf("resume = (gen %d, cursor %d), want (2, 500)", gen, cursor)
	}
}

// TestHTTPConcurrentPushes runs several agents' pushes through Handler at
// once, so their envelopes are decoded into pooled buffers that pass from
// push to push. Each agent's contribution must equal its own state byte
// for byte, so no push saw bytes another left in a buffer.
func TestHTTPConcurrentPushes(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{Spec: faninSpec()})
	srv := httptest.NewServer(Handler(agg))
	defer srv.Close()
	const agents, frames = 4, 6
	items := stream.Univ2.Generate(agents*frames*512, 5)
	ags := make([]*Agent, agents)
	for k := range ags {
		ags[k] = newTestAgent(t, AgentConfig{ID: fmt.Sprintf("edge-%d", k), Spec: faninSpec(), Transport: &HTTPTransport{Base: srv.URL}})
	}
	var wg sync.WaitGroup
	for k, ag := range ags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range frames {
				// Each agent's items differ, and so do its frames' lengths.
				for _, it := range items[(k*frames+f)*512:][:128*(f%4+1)] {
					ag.Ingest(it + uint64(k))
				}
				if err := ag.PushOnce(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, ag := range ags {
		core, err := salsa.DeltaCore(ag.Sketch())
		if err != nil {
			t.Fatal(err)
		}
		agg.mu.Lock()
		contrib := agg.agents[ag.cfg.ID].contrib
		agg.mu.Unlock()
		if !bytes.Equal(marshalState(t, contrib), marshalState(t, core)) {
			t.Errorf("%s: contribution differs from the agent's state", ag.cfg.ID)
		}
	}
	if st := agg.Stats(); st.Applied != agents*frames || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHTTPPushRejections(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{MaxEnvelopeBytes: 64})
	srv := httptest.NewServer(Handler(agg))
	defer srv.Close()

	post := func(body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/push", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	// Garbage → 400.
	if resp := post([]byte("not a frame")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage: %d", resp.StatusCode)
	}
	// An envelope over the configured cap → 413 from the declared length.
	big, err := (&Push{Agent: "a", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 1)}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized envelope: %d", resp.StatusCode)
	}
	// A request body over MaxFrameBytes → 413 via http.MaxBytesReader.
	huge := make([]byte, agg.MaxFrameBytes()+1)
	if resp := post(huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d", resp.StatusCode)
	}
	// A resync verdict travels as 409 and decodes as a normal ack.
	midSeq, err := (&Push{Agent: "b", Gen: 1, Seq: 9, Flags: FlagHeartbeat}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp := post(midSeq); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resync: %d", resp.StatusCode)
	}
}

func TestHTTPQueryEndpoints(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	push(t, agg, &Push{Agent: "e", Gen: 1, Seq: 1, Candidates: []uint64{3}, Envelope: envelopeFor(t, 3, 3, 4)})
	srv := httptest.NewServer(Handler(agg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/v1/query?item=3"); code != 200 || !bytes.Contains([]byte(body), []byte(`"3":2`)) {
		t.Fatalf("query: %d %s", code, body)
	}
	if code, _ := get("/v1/query?item=zzz"); code != 400 {
		t.Fatalf("bad item: %d", code)
	}
	if code, body := get("/v1/top?k=1"); code != 200 || !bytes.Contains([]byte(body), []byte(`"item":3`)) {
		t.Fatalf("top: %d %s", code, body)
	}
	if code, _ := get("/v1/top?k=-1"); code != 400 {
		t.Fatalf("bad k: %d", code)
	}
	if code, body := get("/v1/agents"); code != 200 || !bytes.Contains([]byte(body), []byte(`"id":"e"`)) {
		t.Fatalf("agents: %d %s", code, body)
	}
	if code, body := get("/v1/resume?agent=e"); code != 200 || !bytes.Contains([]byte(body), []byte(`"known":true`)) {
		t.Fatalf("resume: %d %s", code, body)
	}
	if code, _ := get("/v1/resume"); code != 400 {
		t.Fatalf("resume without agent: %d", code)
	}
	if code, body := get("/v1/stats"); code != 200 || !bytes.Contains([]byte(body), []byte(`"applied":1`)) {
		t.Fatalf("stats: %d %s", code, body)
	}
}

// TestAgentEpochCutBesideAutoAdvance cuts frames from an epoch agent
// while its layer's AutoAdvance drains a writer's flushes into the view
// on other goroutines, as AgentConfig.Spec allows. Under -race a cut that
// reads the view without the view lock is reported against the drain.
// Once the writer and the merger stop, the root must hold the view.
func TestAgentEpochCutBesideAutoAdvance(t *testing.T) {
	agg := newTestAggregator(t, AggregatorConfig{})
	ag := newTestAgent(t, AgentConfig{
		ID:        "edge",
		Spec:      salsa.EpochShardedBy(testSpec(), 2),
		Transport: &directTransport{agg: agg},
	})
	local := ag.Sketch().(*salsa.EpochCountMin)
	stop := local.AutoAdvance(0)
	defer stop()
	w := local.NewWriter(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200_000; i++ {
			w.Increment(uint64(i*i) % 4099)
			if i%100 == 99 {
				w.Flush()
			}
		}
		w.Flush()
	}()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		ag.Ingest(uint64(i))
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	stop()
	for i := 0; !ag.Synced(); i++ {
		if i == 10 {
			t.Fatal("agent not synced after the writer and the merger stopped")
		}
		if err := ag.PushOnce(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got, err := agg.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, marshalState(t, local.View())) {
		t.Fatal("root diverged from the agent's view")
	}
}
