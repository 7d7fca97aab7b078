package salsad

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"salsa"
	"salsa/internal/topk"
)

// AggregatorConfig configures an Aggregator.
type AggregatorConfig struct {
	// Spec is the core sketch topology every agent must push (a plain
	// CountMin/ConservativeOf/CountSketch spec; agents may wrap it in
	// EpochShardedBy locally — the wire carries the core). Required.
	Spec salsa.Spec
	// LeaseTTL is how long after its last accepted contact an agent is
	// still considered alive. Zero means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// MaxEnvelopeBytes caps the decoded envelope of one push; zero
	// means DefaultMaxEnvelopeBytes.
	MaxEnvelopeBytes int
	// MaxCandidates caps the aggregator's heavy-hitter candidate pool;
	// zero means DefaultMaxCandidates. Once the pool is full, new
	// candidates are dropped (counted in Stats).
	MaxCandidates int
	// Now is the clock used for leases; nil means time.Now. Injectable so
	// the fault harness can drive virtual time.
	Now func() time.Time
	// DataDir, when non-empty, makes the aggregator durable: its per-agent
	// table is snapshotted to crash-consistent files under this directory
	// and reloaded on construction, so a restarted aggregator serves
	// /v1/resume from persisted frontiers and agents continue from their
	// frozen-frame seq instead of resyncing.
	DataDir string
	// SnapshotEvery persists after this many applied data frames (checked
	// by MaybePersist). Zero means DefaultSnapshotEvery; 1 persists after
	// every applied frame, making a restart lose nothing.
	SnapshotEvery int
}

const (
	// DefaultLeaseTTL is the liveness window applied when
	// AggregatorConfig.LeaseTTL is zero.
	DefaultLeaseTTL = 30 * time.Second
	// DefaultMaxCandidates bounds the heavy-hitter candidate pool when
	// AggregatorConfig.MaxCandidates is zero.
	DefaultMaxCandidates = 4096
	// DefaultSnapshotEvery is the applied-frame persistence interval when
	// AggregatorConfig.SnapshotEvery is zero and a DataDir is set.
	DefaultSnapshotEvery = 64
)

// agentEntry is the aggregator's durable state for one agent id.
type agentEntry struct {
	gen     uint64
	lastSeq uint64
	cursor  uint64
	// contrib accumulates every delta the agent shipped, across
	// generations: a crash-restarted agent cannot resend what it already
	// shipped, so its new generation adds on top. A FlagFull frame
	// replaces it — the agent vouches that its envelope is the complete
	// history.
	contrib  salsa.Sketch
	lastSeen time.Time
	// depth is the fan-in depth the sender reported (0 for edge agents,
	// ≥ 1 for relays pushing their merged table).
	depth byte
}

// AgentStatus is one row of the aggregator's membership table.
type AgentStatus struct {
	ID       string    `json:"id"`
	Gen      uint64    `json:"gen"`
	Seq      uint64    `json:"seq"`
	Cursor   uint64    `json:"cursor"`
	Depth    byte      `json:"depth"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"lastSeen"`
}

// AggregatorStats counts protocol outcomes since construction; for a
// durable aggregator the counters are part of the snapshot, so they
// survive restarts and read as "since the cluster's first boot".
type AggregatorStats struct {
	Applied           uint64 `json:"applied"`
	Duplicates        uint64 `json:"duplicates"`
	Resyncs           uint64 `json:"resyncs"`
	Heartbeats        uint64 `json:"heartbeats"`
	Rejected          uint64 `json:"rejected"`
	CandidatesDropped uint64 `json:"candidatesDropped"`
	// Persists counts snapshots written; PersistErrors counts failed
	// writes and rejected restores.
	Persists      uint64 `json:"persists"`
	PersistErrors uint64 `json:"persistErrors"`
}

// Aggregator merges delta pushes from many agents into per-agent
// contributions and answers cluster-wide queries from their fold. All
// methods are safe for concurrent use.
type Aggregator struct {
	leaseTTL    time.Duration
	maxEnvelope int
	maxCand     int
	now         func() time.Time

	mu sync.Mutex
	// ref is an empty sketch built from the configured spec: the
	// compatibility anchor every incoming envelope is checked against and
	// the zero value cluster queries start from.
	ref        salsa.Sketch
	agents     map[string]*agentEntry
	candidates map[uint64]struct{}
	stats      AggregatorStats

	// pers is the durable-state machinery (nil without a DataDir). The
	// remaining fields track the last snapshot, guarded by mu.
	pers             *persistor
	snapEpoch        uint64
	snapAt           time.Time
	persistedApplied uint64
	restoreErr       error

	// upstreamStats, set once by NewRelay before any concurrency, samples
	// the relay's upstream delivery counters for StatsView.
	upstreamStats func() AgentStats
}

// NewAggregator builds an aggregator for the given core topology. The
// spec must be delta-capable (sum-merge CountMin/ConservativeOf or
// CountSketch).
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if cfg.Spec == nil {
		return nil, &ConfigError{Field: "Spec", Reason: "aggregator needs a topology Spec"}
	}
	ref, err := salsa.Build(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if err := salsa.DeltaCapable(ref); err != nil {
		return nil, err
	}
	if core, err := salsa.DeltaCore(ref); err == nil {
		ref = core
	}
	a := &Aggregator{
		leaseTTL:    cfg.LeaseTTL,
		maxEnvelope: cfg.MaxEnvelopeBytes,
		maxCand:     cfg.MaxCandidates,
		now:         cfg.Now,
		ref:         ref,
		agents:      make(map[string]*agentEntry),
		candidates:  make(map[uint64]struct{}),
	}
	if a.leaseTTL <= 0 {
		a.leaseTTL = DefaultLeaseTTL
	}
	if a.maxEnvelope <= 0 {
		a.maxEnvelope = DefaultMaxEnvelopeBytes
	}
	if a.maxCand <= 0 {
		a.maxCand = DefaultMaxCandidates
	}
	if a.now == nil {
		a.now = time.Now
	}
	if cfg.DataDir != "" {
		state := func() ([]byte, uint64, error) { return a.marshalState(stateKindAggregator, nil) }
		if _, _, err := a.openStore(cfg.DataDir, cfg.SnapshotEvery, state, stateKindAggregator); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// openStore makes the aggregator durable: it opens the store in dir,
// snapshots state every `every` applied frames (zero means
// DefaultSnapshotEvery), and restores the newest valid snapshot a node of
// role kind wrote, returning what restore returns.
func (a *Aggregator) openStore(dir string, every int, state func() ([]byte, uint64, error), kind byte) (upstream []byte, skipped int, err error) {
	store, err := OpenStore(dir)
	if err != nil {
		return nil, 0, err
	}
	if every <= 0 {
		every = DefaultSnapshotEvery
	}
	a.pers = &persistor{store: store, every: every, state: state}
	upstream, skipped = a.restore(store, kind)
	return upstream, skipped, nil
}

// restore loads the newest valid snapshot into the aggregator. A missing
// snapshot is a first boot; an invalid or role-mismatched one is recorded
// (RestoreError, stats.PersistErrors) and the aggregator starts empty —
// the PR 8 resync path rebuilds state from the agents. It returns the
// opaque upstream section for relay snapshots.
func (a *Aggregator) restore(store *Store, wantKind byte) (upstream []byte, skipped int) {
	res, err := store.LoadLatest()
	if err != nil {
		if errors.Is(err, ErrNoSnapshot) {
			return nil, 0
		}
		a.noteRestoreError(err)
		return nil, 0
	}
	kind, upstream, err := a.restoreState(res.State)
	if err != nil {
		a.noteRestoreError(&SnapshotError{Path: res.Path, Reason: "restore", Err: err})
		return nil, len(res.Skipped)
	}
	if kind != wantKind {
		// A role mismatch (an aggregator pointed at a relay's data dir, or
		// vice versa) means the upstream/downstream split is wrong; the
		// table was already swapped in by restoreState, so reset it.
		a.mu.Lock()
		a.agents = make(map[string]*agentEntry)
		a.candidates = make(map[uint64]struct{})
		a.stats = AggregatorStats{}
		a.mu.Unlock()
		a.noteRestoreError(&SnapshotError{Path: res.Path,
			Reason: fmt.Sprintf("snapshot written by role kind %d, this node is kind %d", kind, wantKind)})
		return nil, len(res.Skipped)
	}
	a.mu.Lock()
	a.snapEpoch = res.Epoch
	a.snapAt = a.now()
	a.persistedApplied = a.stats.Applied
	a.mu.Unlock()
	return upstream, len(res.Skipped)
}

// noteRestoreError records a failed restore: typed error kept for
// RestoreError, counted in stats.
func (a *Aggregator) noteRestoreError(err error) {
	a.mu.Lock()
	a.restoreErr = err
	a.stats.PersistErrors++
	a.mu.Unlock()
}

// RestoreError returns the typed error of a failed snapshot restore (nil
// when the last construction restored cleanly or found no snapshot). The
// aggregator still serves — agents rebuild it through resyncs — but the
// operator should know the durable state was rejected.
func (a *Aggregator) RestoreError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.restoreErr
}

// Store returns the snapshot store (nil without a DataDir).
func (a *Aggregator) Store() *Store {
	if a.pers == nil {
		return nil
	}
	return a.pers.store
}

// Persist writes the current durable state as a new snapshot epoch.
// Returns a *ConfigError when the aggregator has no DataDir.
func (a *Aggregator) Persist() (uint64, error) {
	if a.pers == nil {
		return 0, &ConfigError{Field: "DataDir", Reason: "aggregator is not durable; set DataDir"}
	}
	epoch, applied, err := a.pers.persist()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		a.stats.PersistErrors++
		return 0, err
	}
	a.snapEpoch = epoch
	a.snapAt = a.now()
	// Only the frames the snapshot captured are persisted: one applied
	// while it was being written is not, and keeps MaybePersist due.
	a.persistedApplied = max(a.persistedApplied, applied)
	a.stats.Persists++
	return epoch, nil
}

// MaybePersist persists when at least SnapshotEvery data frames have
// been applied since the last snapshot. It is a no-op (false, nil) for a
// non-durable aggregator; the transport or HTTP handler calls it after
// every applied push.
func (a *Aggregator) MaybePersist() (bool, error) {
	if a.pers == nil {
		return false, nil
	}
	a.mu.Lock()
	due := a.stats.Applied >= a.persistedApplied+uint64(a.pers.every)
	a.mu.Unlock()
	if !due {
		return false, nil
	}
	_, err := a.Persist()
	return err == nil, err
}

// MaxEnvelopeBytes returns the configured decoded-envelope cap.
func (a *Aggregator) MaxEnvelopeBytes() int { return a.maxEnvelope }

// MaxFrameBytes returns the largest well-formed wire frame the aggregator
// accepts: the frame overhead plus the longest compressed form of an
// envelope at the cap, which can exceed the envelope itself. HTTP servers
// use it to size http.MaxBytesReader.
func (a *Aggregator) MaxFrameBytes() int64 {
	return maxFrameOverhead + int64(maxCodedLen(a.maxEnvelope))
}

// ApplyPush applies one decoded push frame and returns the ack the agent
// should see. An error means the frame itself was unusable (undecodable or
// incompatible envelope) — the transport should map it to a hard reject,
// not a retryable failure.
func (a *Aggregator) ApplyPush(p *Push) (*Ack, error) {
	// Decode and sanity-check the envelope before taking the lock.
	var delta salsa.Sketch
	if !p.Heartbeat() {
		if len(p.Envelope) > a.maxEnvelope {
			a.reject()
			return nil, &TooLargeError{Size: len(p.Envelope), Limit: a.maxEnvelope}
		}
		decoded, err := salsa.Unmarshal(p.Envelope)
		if err != nil {
			a.reject()
			return nil, fmt.Errorf("salsad: push envelope: %w", err)
		}
		core, err := salsa.DeltaCore(decoded)
		if err != nil {
			a.reject()
			return nil, err
		}
		delta = core
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	e := a.agents[p.Agent]

	ackFor := func(st Status, e *agentEntry) *Ack {
		ack := &Ack{Status: st}
		if e != nil {
			ack.Gen, ack.Seq, ack.Cursor = e.gen, e.lastSeq, e.cursor
		}
		return ack
	}

	if p.Heartbeat() {
		if e == nil || p.Gen != e.gen {
			// No state to renew (e.g. the aggregator restarted): the agent
			// must re-establish itself with a full snapshot.
			a.stats.Resyncs++
			return ackFor(StatusResync, e), nil
		}
		e.lastSeen = now
		a.stats.Heartbeats++
		return ackFor(StatusApplied, e), nil
	}

	switch {
	case e == nil || p.Gen > e.gen:
		// First contact, or a fresh incarnation of a known agent. A
		// generation must start at seq 1 — anything else means frames were
		// lost before we ever had state, so only a resync can recover.
		if p.Seq != 1 {
			a.stats.Resyncs++
			return ackFor(StatusResync, e), nil
		}

	case p.Gen < e.gen:
		// A zombie incarnation (or a frame delayed from before a restart):
		// never apply; tell the sender its generation is burned.
		a.stats.Resyncs++
		return ackFor(StatusResync, e), nil

	case p.Seq <= e.lastSeq:
		// Retried or duplicated frame; retries are byte-identical by
		// protocol, so acknowledging without applying is exact.
		e.lastSeen = now
		a.stats.Duplicates++
		return ackFor(StatusDuplicate, e), nil

	case p.Seq != e.lastSeq+1:
		// Sequence gap: a frame is missing and can never be recovered
		// (the agent has moved its shadow past it only on ack, so a gap
		// means state diverged — e.g. the entry was built by a different
		// incarnation). Full resync rebuilds the contribution.
		a.stats.Resyncs++
		return ackFor(StatusResync, e), nil
	}

	if e == nil {
		e = &agentEntry{} // joins the table once the frame applies
	}
	if p.Full() || e.contrib == nil {
		// The envelope replaces the contribution (FlagFull) or becomes its
		// first one. Merging the empty reference into it runs the full
		// geometry/seed/type checks first: an incompatible contribution
		// would fail every later fold of the table.
		if err := salsa.MergeInto(delta, a.ref); err != nil {
			a.stats.Rejected++
			return nil, err
		}
		e.contrib = delta
	} else if err := salsa.MergeInto(e.contrib, delta); err != nil {
		a.stats.Rejected++
		return nil, err
	}
	a.agents[p.Agent] = e
	e.gen, e.lastSeq, e.cursor = p.Gen, p.Seq, p.Cursor
	e.lastSeen = now
	e.depth = p.Depth
	a.stats.Applied++
	a.addCandidatesLocked(p.Candidates)
	return ackFor(StatusApplied, e), nil
}

// reject counts a pre-lock rejection (envelope decode failures). Inside
// the locked state machine, increment stats.Rejected directly.
func (a *Aggregator) reject() {
	a.mu.Lock()
	a.stats.Rejected++
	a.mu.Unlock()
}

// addCandidatesLocked folds an agent's heavy-hitter candidates into the
// bounded pool.
func (a *Aggregator) addCandidatesLocked(items []uint64) {
	for _, it := range items {
		if _, ok := a.candidates[it]; ok {
			continue
		}
		if len(a.candidates) >= a.maxCand {
			a.stats.CandidatesDropped++
			continue
		}
		a.candidates[it] = struct{}{}
	}
}

// Resume returns the aggregator's durable frontier for an agent id, used
// by a restarting agent to pick a fresh generation and replay point.
func (a *Aggregator) Resume(agent string) ResumeInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.agents[agent]
	if e == nil {
		return ResumeInfo{}
	}
	return ResumeInfo{Known: true, Gen: e.gen, Seq: e.lastSeq, Cursor: e.cursor}
}

// mergedLocked folds every agent's contribution into a fresh sketch, in
// sorted agent order so the result is deterministic.
func (a *Aggregator) mergedLocked() (salsa.Sketch, error) {
	out, err := salsa.CloneSketch(a.ref)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(a.agents))
	for id := range a.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if c := a.agents[id].contrib; c != nil {
			if err := salsa.MergeInto(out, c); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Snapshot returns the cluster-wide merged sketch (a private copy the
// caller owns).
func (a *Aggregator) Snapshot() (salsa.Sketch, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mergedLocked()
}

// SnapshotBytes returns the cluster-wide merged sketch as a universal
// envelope.
func (a *Aggregator) SnapshotBytes() ([]byte, error) {
	s, err := a.Snapshot()
	if err != nil {
		return nil, err
	}
	return salsa.Marshal(s)
}

// Query returns the merged-sketch estimate for each item (CountSketch
// estimates may be negative; CountMin estimates are non-negative and
// saturate at MaxInt64).
func (a *Aggregator) Query(items []uint64) ([]int64, error) {
	s, err := a.Snapshot()
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = querySketch(s, it)
	}
	return out, nil
}

func querySketch(s salsa.Sketch, item uint64) int64 {
	switch t := s.(type) {
	case *salsa.CountMin:
		return topk.CountOf(t.Query(item))
	case *salsa.CountSketch:
		return t.Query(item)
	default:
		return 0
	}
}

// Top evaluates the candidate pool against the merged sketch and returns
// the k items with the largest positive estimates (every one when k ≤ 0),
// ranked by topk.Rank.
func (a *Aggregator) Top(k int) ([]salsa.ItemCount, error) {
	cands, merged, err := a.candidatesAndMerged()
	if err != nil {
		return nil, err
	}
	top := rankPositive(merged, cands)
	if k > 0 {
		top = topk.Cut(top, k)
	}
	out := make([]salsa.ItemCount, len(top))
	for i, e := range top {
		out[i] = salsa.ItemCount(e)
	}
	return out, nil
}

// candidatesAndMerged returns the candidate pool and the merged sketch,
// both private copies, so Top ranks them without the lock.
func (a *Aggregator) candidatesAndMerged() ([]uint64, salsa.Sketch, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cands := make([]uint64, 0, len(a.candidates))
	for it := range a.candidates {
		cands = append(cands, it)
	}
	merged, err := a.mergedLocked()
	return cands, merged, err
}

// rankPositive evaluates items against s and returns those with a
// positive estimate, ranked by topk.Rank: the answers Top gives, and the
// only candidates worth a relay's upstream frame, since Top discards the
// others at every tier.
func rankPositive(s salsa.Sketch, items []uint64) []topk.Entry {
	out := make([]topk.Entry, len(items))
	for i, it := range items {
		out[i] = topk.Entry{Item: it, Count: querySketch(s, it)}
	}
	topk.Rank(out)
	return topk.Above(out, 1)
}

// Agents returns the membership table in sorted id order; Alive reflects
// the lease: agents silent for longer than LeaseTTL are reported dead but
// their contributions are retained (counts must survive their reporter).
func (a *Aggregator) Agents() []AgentStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	out := make([]AgentStatus, 0, len(a.agents))
	for id, e := range a.agents {
		out = append(out, AgentStatus{
			ID:       id,
			Gen:      e.gen,
			Seq:      e.lastSeq,
			Cursor:   e.cursor,
			Depth:    e.depth,
			Alive:    now.Sub(e.lastSeen) <= a.leaseTTL,
			LastSeen: e.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats returns protocol counters since construction (since the first
// boot for durable aggregators, whose counters ride the snapshot).
func (a *Aggregator) Stats() AggregatorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// StatsView is the operational /v1/stats payload: the protocol counters
// plus durability and topology gauges.
type StatsView struct {
	AggregatorStats
	// SnapshotEpoch is the epoch of the last persisted (or restored)
	// snapshot; 0 means never persisted.
	SnapshotEpoch uint64 `json:"snapshotEpoch"`
	// SnapshotAgeMs is how long ago that snapshot was written, in
	// milliseconds; -1 when the node is not durable or never persisted.
	SnapshotAgeMs int64 `json:"snapshotAgeMs"`
	// TierDepth is this node's fan-in depth: 1 + the deepest depth any
	// sender reported (1 for a first-tier aggregator over edge agents).
	TierDepth int `json:"tierDepth"`
	// Upstream carries the relay's upstream delivery counters; nil on a
	// plain aggregator.
	Upstream *AgentStats `json:"upstream,omitempty"`
}

// StatsView returns the operational gauges served on /v1/stats.
func (a *Aggregator) StatsView() StatsView {
	var up *AgentStats
	if a.upstreamStats != nil {
		s := a.upstreamStats()
		up = &s
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	v := StatsView{
		AggregatorStats: a.stats,
		SnapshotEpoch:   a.snapEpoch,
		SnapshotAgeMs:   -1,
		TierDepth:       a.depthLocked(),
	}
	if !a.snapAt.IsZero() {
		v.SnapshotAgeMs = a.now().Sub(a.snapAt).Milliseconds()
	}
	v.Upstream = up
	return v
}

// depthLocked is 1 + the deepest fan-in depth any sender reported.
func (a *Aggregator) depthLocked() int {
	depth := 0
	for _, e := range a.agents {
		if int(e.depth) > depth {
			depth = int(e.depth)
		}
	}
	return depth + 1
}

// appliedCount returns the applied-data-frame counter and this node's
// tier depth; the counter is the relay's dirtiness gauge (anything
// applied since the last upstream shadow means there is a delta worth
// shipping).
func (a *Aggregator) appliedCount() (uint64, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.Applied, a.depthLocked()
}

// upstreamCut atomically captures everything a relay needs to freeze an
// upstream frame: the merged table, the applied-frame counter it
// reflects, the candidate pool (the first MaxPushCandidates of the items
// Top would answer, ranked by rankPositive), and this node's tier depth.
func (a *Aggregator) upstreamCut() (merged salsa.Sketch, applied uint64, cands []uint64, depth int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	merged, err = a.mergedLocked()
	if err != nil {
		return nil, 0, nil, 0, err
	}
	pool := make([]uint64, 0, len(a.candidates))
	for it := range a.candidates {
		pool = append(pool, it)
	}
	ranked := topk.Cut(rankPositive(merged, pool), MaxPushCandidates)
	cands = make([]uint64, len(ranked))
	for i, e := range ranked {
		cands[i] = e.Item
	}
	return merged, a.stats.Applied, cands, a.depthLocked(), nil
}
