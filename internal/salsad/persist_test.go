package salsad

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"salsa"
)

// --- snapshot store ---

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := []byte("the aggregator table, serialized")
	epoch, err := s.Save(state)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first epoch = %d, want 1", epoch)
	}
	res, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.State, state) || res.Epoch != 1 || len(res.Skipped) != 0 {
		t.Fatalf("bad load: epoch=%d skipped=%d", res.Epoch, len(res.Skipped))
	}
}

func TestStoreEpochsMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Save([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Reopening must resume above the highest epoch on disk, never reuse
	// one.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := s2.Save([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 4 {
		t.Fatalf("epoch after reopen = %d, want 4", epoch)
	}
}

func TestStorePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Save([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != snapKeep {
		t.Fatalf("retained %d files, want %d", len(entries), snapKeep)
	}
	// The newest must still load.
	res, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 5 || !bytes.Equal(res.State, []byte{4}) {
		t.Fatalf("newest after prune: epoch=%d", res.Epoch)
	}
}

func TestStoreEmptyDirIsErrNoSnapshot(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

func TestStoreRemovesTornTmpFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, SnapshotFileName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("torn .tmp file survived OpenStore")
	}
	// And the tmp name must not have claimed its epoch.
	if e := s.Epoch(); e != 0 {
		t.Fatalf("tmp file advanced the epoch to %d", e)
	}
}

// corrupt writes a snapshot, damages it with f, and returns the load
// error.
func corruptAndLoad(t *testing.T, f func(dir, path string) error) error {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("will be damaged")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFileName(1))
	if err := f(dir, path); err != nil {
		t.Fatal(err)
	}
	_, err = s.LoadLatest()
	return err
}

func TestStoreRejectsCorruption(t *testing.T) {
	cases := map[string]struct {
		damage func(dir, path string) error
		reason string
	}{
		"bit flip": {func(_, path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 1
			return os.WriteFile(path, data, 0o644)
		}, "checksum"},
		"truncated": {func(_, path string) error {
			return os.Truncate(path, 9)
		}, "truncated"},
		"emptied": {func(_, path string) error {
			return os.WriteFile(path, nil, 0o644)
		}, "truncated"},
		"stale-epoch replay": {func(dir, path string) error {
			// The epoch-1 bytes republished under the epoch-2 name: a backup
			// restored over a live data dir.
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(filepath.Join(dir, SnapshotFileName(2)), data, 0o644)
		}, "stale-epoch replay"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			err := corruptAndLoad(t, tc.damage)
			var se *SnapshotError
			if name == "stale-epoch replay" {
				// The forged newer file is rejected; the genuine epoch-1 file
				// still loads, with the rejection recorded.
				if err != nil {
					t.Fatalf("fallback failed: %v", err)
				}
				return
			}
			if !errors.As(err, &se) {
				t.Fatalf("want *SnapshotError, got %v", err)
			}
			if !strings.Contains(se.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", se.Reason, tc.reason)
			}
		})
	}
}

func TestStoreFallsBackPastCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("older, intact")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("newer, doomed")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotFileName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // break the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || !bytes.Equal(res.State, []byte("older, intact")) {
		t.Fatalf("fallback loaded epoch %d", res.Epoch)
	}
	if len(res.Skipped) != 1 {
		t.Fatalf("skipped %d files, want 1", len(res.Skipped))
	}
	var se *SnapshotError
	if !errors.As(res.Skipped[0], &se) || se.Path != path {
		t.Fatalf("skipped error %v does not name the corrupt file", res.Skipped[0])
	}
}

func TestStoreAllCorruptReturnsNewestError(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Save([]byte("two")); err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{1, 2} {
		if err := os.Truncate(filepath.Join(dir, SnapshotFileName(e)), 3); err != nil {
			t.Fatal(err)
		}
	}
	var se *SnapshotError
	if _, err := s.LoadLatest(); !errors.As(err, &se) {
		t.Fatalf("want *SnapshotError, got %v", err)
	}
	if !strings.Contains(se.Path, SnapshotFileName(2)) {
		t.Fatalf("error names %q, want the newest file", se.Path)
	}
}

// --- aggregator state codec ---

// feedAggregator applies a few generations of pushes from two agents.
func feedAggregator(t *testing.T, a *Aggregator) {
	t.Helper()
	push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 1, Cursor: 10,
		Candidates: []uint64{7, 9}, Envelope: envelopeFor(t, 7, 7, 9)})
	push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 2, Cursor: 20, Envelope: envelopeFor(t, 9)})
	push(t, a, &Push{Agent: "a2", Gen: 3, Seq: 1, Cursor: 5, Flags: FlagFull,
		Envelope: envelopeFor(t, 1, 2, 3)})
	// A generation bump so a2's contribution spans two generations.
	push(t, a, &Push{Agent: "a2", Gen: 4, Seq: 1, Cursor: 8, Envelope: envelopeFor(t, 4)})
}

func TestMarshalStateDeterministic(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	feedAggregator(t, a)
	b1, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("MarshalState is not deterministic")
	}
}

func TestRestoreStateByteIdentical(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	feedAggregator(t, a)
	state, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := a.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	b := newTestAggregator(t, AggregatorConfig{})
	kind, upstream, err := b.restoreState(state)
	if err != nil {
		t.Fatal(err)
	}
	if kind != stateKindAggregator || len(upstream) != 0 {
		t.Fatalf("kind=%d upstream=%d bytes", kind, len(upstream))
	}
	gotSnap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("restored merged sketch differs from the original")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	// Frontiers must match row for row (LastSeen is reset on restore).
	wa, wb := a.Agents(), b.Agents()
	if len(wa) != len(wb) {
		t.Fatalf("agent counts: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i].ID != wb[i].ID || wa[i].Gen != wb[i].Gen || wa[i].Seq != wb[i].Seq || wa[i].Cursor != wb[i].Cursor {
			t.Fatalf("row %d diverged: %+v vs %+v", i, wa[i], wb[i])
		}
	}
}

// weightedEnvelope marshals a testSpec sketch holding each (item, count)
// pair of pairs.
func weightedEnvelope(t *testing.T, pairs ...uint64) []byte {
	t.Helper()
	s := salsa.MustBuild(testSpec())
	for i := 0; i+1 < len(pairs); i += 2 {
		s.Update(pairs[i], int64(pairs[i+1]))
	}
	return marshalState(t, s)
}

// feedRejoin applies the pushes behind testdata/rejoin.state. Agent a1
// rejoins twice without FlagFull, and its counts for items 7 and 11 pass
// 8 bits, so SALSA counters merge; a2 starts with a FlagFull frame; r1
// is a relay at depth 1.
func feedRejoin(t *testing.T, a *Aggregator) {
	t.Helper()
	for _, p := range []*Push{
		{Agent: "a1", Gen: 1, Seq: 1, Cursor: 300, Candidates: []uint64{7, 9},
			Envelope: weightedEnvelope(t, 7, 200, 9, 3)},
		{Agent: "a1", Gen: 1, Seq: 2, Cursor: 500, Envelope: weightedEnvelope(t, 7, 100)},
		{Agent: "a1", Gen: 2, Seq: 1, Cursor: 700, Candidates: []uint64{11},
			Envelope: weightedEnvelope(t, 7, 150, 11, 40)},
		{Agent: "a1", Gen: 2, Seq: 2, Cursor: 900, Envelope: weightedEnvelope(t, 11, 250)},
		{Agent: "a1", Gen: 3, Seq: 1, Cursor: 950, Envelope: weightedEnvelope(t, 7, 60, 13, 1)},
		{Agent: "a2", Gen: 1, Seq: 1, Cursor: 40, Flags: FlagFull,
			Envelope: weightedEnvelope(t, 1, 10, 2, 20, 3, 300)},
		{Agent: "a2", Gen: 1, Seq: 2, Cursor: 60, Envelope: weightedEnvelope(t, 2, 5)},
		{Agent: "a2", Gen: 1, Seq: 2, Cursor: 60, Envelope: weightedEnvelope(t, 2, 5)},
		{Agent: "a2", Gen: 1, Seq: 2, Cursor: 60, Flags: FlagHeartbeat},
		{Agent: "r1", Gen: 5, Seq: 1, Cursor: 1, Depth: 1, Flags: FlagFull,
			Envelope: weightedEnvelope(t, 7, 1000, 3, 2)},
	} {
		push(t, a, p)
	}
}

// TestRestoreRejoinState restores a version-1 snapshot payload written
// before the aggregator kept one contribution per agent: a rejoined agent's
// earlier generations sit in its row's second sketch slot. The restored
// table must answer with the merged bytes committed beside it, keep every
// frontier, and marshal like the same table fed live.
func TestRestoreRejoinState(t *testing.T) {
	state, err := os.ReadFile(filepath.Join("testdata", "rejoin.state"))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := os.ReadFile(filepath.Join("testdata", "rejoin.envelope"))
	if err != nil {
		t.Fatal(err)
	}
	b := newTestAggregator(t, AggregatorConfig{})
	if _, _, err := b.restoreState(state); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatalf("restored merged sketch (%d bytes) differs from the committed one (%d bytes)", len(gotSnap), len(wantSnap))
	}

	live := newTestAggregator(t, AggregatorConfig{})
	feedRejoin(t, live)
	if liveSnap, err := live.SnapshotBytes(); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(liveSnap, wantSnap) {
		t.Fatal("the live-fed table's merged sketch differs from the committed one")
	}
	wa, wb := live.Agents(), b.Agents()
	if len(wa) != len(wb) {
		t.Fatalf("agent counts: %d vs %d", len(wa), len(wb))
	}
	for i := range wa {
		wa[i].LastSeen, wb[i].LastSeen = time.Time{}, time.Time{}
		if wa[i] != wb[i] {
			t.Fatalf("row %d diverged: live %+v, restored %+v", i, wa[i], wb[i])
		}
	}
	if live.Stats() != b.Stats() {
		t.Fatalf("stats diverged: live %+v, restored %+v", live.Stats(), b.Stats())
	}
	again, err := b.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("restored table marshals to %d bytes, the live-fed one to %d", len(again), len(want))
	}
}

func TestRestoreStateRejectsGarbage(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	good, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"bad magic":      append([]byte{9, 9, 9, 9}, good[4:]...),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte{}, good...), 1, 2, 3),
	}
	for name, data := range cases {
		b := newTestAggregator(t, AggregatorConfig{})
		var se *SnapshotError
		if _, _, err := b.restoreState(data); !errors.As(err, &se) {
			t.Fatalf("%s: want *SnapshotError, got %v", name, err)
		}
	}
}

func TestRestoreStateRejectsIncompatibleTopology(t *testing.T) {
	a := newTestAggregator(t, AggregatorConfig{})
	feedAggregator(t, a)
	state, err := a.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Same payload, different cluster geometry: the sketch compat check
	// must reject the restore rather than merge mismatched counters.
	b := newTestAggregator(t, AggregatorConfig{
		Spec: salsa.CountMinOf(salsa.Options{Width: 1 << 9, Merge: salsa.MergeSum, Seed: 11}),
	})
	var se *SnapshotError
	if _, _, err := b.restoreState(state); !errors.As(err, &se) {
		t.Fatalf("want *SnapshotError, got %v", err)
	}
}

// --- durable aggregator end to end ---

func TestDurableAggregatorRestartZeroResync(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	feedAggregator(t, a)
	if _, err := a.MaybePersist(); err != nil {
		t.Fatal(err)
	}
	wantSnap, err := a.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}

	// kill -9, restart over the same data dir.
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if err := b.RestoreError(); err != nil {
		t.Fatal(err)
	}
	gotSnap, err := b.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Fatal("restart lost state")
	}
	// /v1/resume serves persisted frontiers...
	if info := b.Resume("a1"); !info.Known || info.Gen != 1 || info.Seq != 2 || info.Cursor != 20 {
		t.Fatalf("resume from snapshot: %+v", info)
	}
	// ...and the next in-sequence frame applies with NO resync.
	ack := push(t, b, &Push{Agent: "a1", Gen: 1, Seq: 3, Cursor: 30, Envelope: envelopeFor(t, 5)})
	if ack.Status != StatusApplied {
		t.Fatalf("continuation frame: %v", ack.Status)
	}
	if b.Stats().Resyncs != a.Stats().Resyncs {
		t.Fatal("durable restart caused resyncs")
	}
}

func TestDurableAggregatorCorruptSnapshotFallsBackToResync(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	feedAggregator(t, a)
	if _, err := a.Persist(); err != nil {
		t.Fatal(err)
	}
	// Damage every snapshot on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if err := os.Truncate(filepath.Join(dir, ent.Name()), 5); err != nil {
			t.Fatal(err)
		}
	}
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	var se *SnapshotError
	if err := b.RestoreError(); !errors.As(err, &se) {
		t.Fatalf("want typed *SnapshotError, got %v", err)
	}
	if b.Stats().PersistErrors == 0 {
		t.Fatal("rejected restore not counted")
	}
	// The aggregator still serves: the PR 8 resync path rebuilds state.
	ack := push(t, b, &Push{Agent: "a1", Gen: 1, Seq: 3, Cursor: 30, Envelope: envelopeFor(t, 5)})
	if ack.Status != StatusResync {
		t.Fatalf("stale agent should be told to resync, got %v", ack.Status)
	}
	ack = push(t, b, &Push{Agent: "a1", Gen: 2, Seq: 1, Cursor: 30, Flags: FlagFull,
		Envelope: envelopeFor(t, 7, 7, 9, 9, 5)})
	if ack.Status != StatusApplied {
		t.Fatalf("resync snapshot: %v", ack.Status)
	}
}

func TestDurableAggregatorRoleMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	// A relay persisted here...
	r, err := NewRelay(RelayConfig{ID: "r", Spec: testSpec(), Upstream: &directTransport{agg: newTestAggregator(t, AggregatorConfig{})}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Persist(); err != nil {
		t.Fatal(err)
	}
	// ...and an aggregator pointed at the same dir must reject it and
	// start empty.
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir})
	var se *SnapshotError
	if err := b.RestoreError(); !errors.As(err, &se) {
		t.Fatalf("want *SnapshotError, got %v", err)
	}
	if len(b.Agents()) != 0 {
		t.Fatal("mismatched-role table was not reset")
	}
}

func TestStatsViewGauges(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1,
		Now: func() time.Time { now = now.Add(time.Second); return now }})
	v := a.StatsView()
	if v.SnapshotEpoch != 0 || v.SnapshotAgeMs != -1 || v.TierDepth != 1 {
		t.Fatalf("fresh gauges: %+v", v)
	}
	push(t, a, &Push{Agent: "r1", Gen: 1, Seq: 1, Flags: FlagRelay, Depth: 2,
		Envelope: envelopeFor(t, 1)})
	if _, err := a.MaybePersist(); err != nil {
		t.Fatal(err)
	}
	v = a.StatsView()
	if v.SnapshotEpoch == 0 || v.SnapshotAgeMs < 0 {
		t.Fatalf("post-persist gauges: %+v", v)
	}
	if v.TierDepth != 3 { // 1 + the relay's reported depth 2
		t.Fatalf("tier depth = %d, want 3", v.TierDepth)
	}
	if v.Persists != 1 {
		t.Fatalf("persists = %d", v.Persists)
	}
}

// TestPersistCountsOnlyCapturedFrames applies a frame between the moment a
// snapshot captures the table and the end of its save, as a concurrent
// push or a relay's downstream apply can. That frame is not in the
// snapshot, so the next MaybePersist must still be due; with SnapshotEvery
// 1 a restart then loses nothing.
func TestPersistCountsOnlyCapturedFrames(t *testing.T) {
	dir := t.TempDir()
	a := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	push(t, a, &Push{Agent: "a1", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 1)})
	capture := a.pers.state
	a.pers.state = func() ([]byte, uint64, error) {
		a.pers.state = capture
		state, applied, err := capture()
		push(t, a, &Push{Agent: "a2", Gen: 1, Seq: 1, Envelope: envelopeFor(t, 2)})
		return state, applied, err
	}
	if ok, err := a.MaybePersist(); !ok || err != nil {
		t.Fatalf("first MaybePersist: %v, %v", ok, err)
	}
	if ok, err := a.MaybePersist(); !ok || err != nil {
		t.Fatalf("a frame applied during the save left no snapshot due: %v, %v", ok, err)
	}
	b := newTestAggregator(t, AggregatorConfig{DataDir: dir, SnapshotEvery: 1})
	if !b.Resume("a2").Known {
		t.Fatal("a restart lost the frame applied during a save")
	}
}
