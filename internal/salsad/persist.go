package salsad

// Crash-consistent durable state for aggregators and relays.
//
// A Store owns a data directory holding snapshot files named
// snap-<epoch>.salsad, where <epoch> is a 16-hex-digit monotonically
// increasing stamp. Each file wraps an opaque state payload in a small
// header (magic, version, epoch, length) followed by a CRC-64/ECMA
// checksum over everything before it. Writes are atomic: the file is
// assembled in a .tmp sibling, fsynced, renamed into place, and the
// directory fsynced — so a crash mid-write leaves only an ignorable .tmp
// and every *named* snapshot on disk is complete. The embedded epoch must
// match the filename's, which is what catches a stale snapshot replayed
// under a newer name.
//
// On load the newest valid snapshot wins. Files that fail validation
// (torn, truncated, bit-flipped, stale-epoch) are rejected with a typed
// *SnapshotError and recorded as skipped; the loader falls back to the
// next older complete file, and to ErrNoSnapshot when the directory holds
// none. Callers that persist protocol frontiers (the relay's upstream
// frozen frame) treat "the newest file was skipped" as a signal that the
// durable frontier cannot be trusted and fall back to the resync path.
//
// The state payload itself is the aggregator's table — per-agent sketch
// contributions serialized via the universal envelope, generations, seq
// frontiers, replay cursors, the candidate pool, and the protocol
// counters — plus, for relays, the upstream shipping state (generation,
// seq, shadow snapshot, and the frozen in-flight frame, which must
// survive a crash byte-identically for retry dedup to stay exact).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"salsa"
)

const (
	snapMagic   uint32 = 0x50534c53 // "SLSP" little-endian
	snapVersion byte   = 1
	snapPrefix         = "snap-"
	snapSuffix         = ".salsad"
	// snapKeep is how many complete snapshots Save retains: the newest
	// plus one predecessor, so a corrupted newest file still has a
	// consistent (if older) fallback.
	snapKeep = 2

	// snapHeaderLen is magic+version+epoch+payloadLen; snapTrailerLen the
	// checksum.
	snapHeaderLen  = 4 + 1 + 8 + 4
	snapTrailerLen = 8

	// MaxSnapshotBytes bounds the snapshot payload a Store will write or
	// read back; a corrupted length field cannot balloon allocation.
	MaxSnapshotBytes = 1 << 30
)

// crcSnap is the checksum polynomial table for snapshot files.
var crcSnap = crc64.MakeTable(crc64.ECMA)

// ErrNoSnapshot is returned by LoadLatest when the data directory holds
// no snapshot files at all — a first boot, as opposed to a corrupt one.
var ErrNoSnapshot = errors.New("salsad: no snapshot on disk")

// A SnapshotError reports a snapshot file (or write) that failed
// validation: torn, truncated, checksum-mismatched, stale-epoch, or
// written by an incompatible role. Restores treat it as "this file does
// not exist" and fall back — to an older snapshot or to the resync path.
type SnapshotError struct {
	// Path is the offending file ("" when the state decoded but was
	// semantically unusable).
	Path string
	// Reason states what failed.
	Reason string
	// Err is the underlying cause, if any.
	Err error
}

func (e *SnapshotError) Error() string {
	msg := "salsad: snapshot"
	if e.Path != "" {
		msg += " " + e.Path
	}
	msg += ": " + e.Reason
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// SnapshotFileName returns the file name a snapshot with the given epoch
// is stored under.
func SnapshotFileName(epoch uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, epoch, snapSuffix)
}

// ParseSnapshotFileName extracts the epoch from a snapshot file name; ok
// is false for names that are not canonical snapshot files.
func ParseSnapshotFileName(name string) (epoch uint64, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	hexa := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if len(hexa) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexa, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Store is a crash-consistent snapshot directory. Save and LoadLatest
// are safe for concurrent use.
type Store struct {
	dir string

	mu    sync.Mutex
	epoch uint64 // highest epoch present or written
}

// OpenStore opens (creating if needed) a snapshot directory, removes
// leftover .tmp files from interrupted writes, and positions the epoch
// counter above every snapshot already present.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, &ConfigError{Field: "DataDir", Reason: "snapshot store needs a data directory"}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &SnapshotError{Path: dir, Reason: "create data dir", Err: err}
	}
	s := &Store{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, &SnapshotError{Path: dir, Reason: "scan data dir", Err: err}
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, snapPrefix) {
			os.Remove(filepath.Join(dir, name)) //nolint:errcheck // best-effort cleanup
			continue
		}
		if epoch, ok := ParseSnapshotFileName(name); ok && epoch > s.epoch {
			s.epoch = epoch
		}
	}
	return s, nil
}

// Dir returns the data directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the highest snapshot epoch present or written so far.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Save writes state as the next-epoch snapshot: assembled in a .tmp
// file, fsynced, renamed into place, directory fsynced. Older snapshots
// beyond the retention window are pruned. Returns the epoch written.
func (s *Store) Save(state []byte) (uint64, error) {
	if len(state) > MaxSnapshotBytes {
		return 0, &SnapshotError{Path: s.dir, Reason: fmt.Sprintf("state of %d bytes exceeds the %d-byte cap", len(state), MaxSnapshotBytes)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.epoch + 1

	buf := make([]byte, 0, snapHeaderLen+len(state)+snapTrailerLen)
	buf = binary.LittleEndian.AppendUint32(buf, snapMagic)
	buf = append(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(state)))
	buf = append(buf, state...)
	buf = binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcSnap))

	final := filepath.Join(s.dir, SnapshotFileName(epoch))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, &SnapshotError{Path: tmp, Reason: "write snapshot", Err: err}
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, &SnapshotError{Path: final, Reason: "publish snapshot", Err: err}
	}
	syncDir(s.dir)
	s.epoch = epoch
	s.pruneLocked()
	return epoch, nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close() //nolint:errcheck // write error wins
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck // sync error wins
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a rename survives power loss; failures
// are ignored (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck // best effort
	d.Close() //nolint:errcheck // read-only handle
}

// pruneLocked removes complete snapshots older than the retention
// window.
func (s *Store) pruneLocked() {
	epochs := s.listEpochsLocked()
	if len(epochs) <= snapKeep {
		return
	}
	for _, e := range epochs[:len(epochs)-snapKeep] {
		os.Remove(filepath.Join(s.dir, SnapshotFileName(e))) //nolint:errcheck // retention is best-effort
	}
}

// listEpochsLocked returns the epochs of every named snapshot file in
// ascending order.
func (s *Store) listEpochsLocked() []uint64 {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var epochs []uint64
	for _, ent := range entries {
		if e, ok := ParseSnapshotFileName(ent.Name()); ok {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs
}

// LoadResult is a successfully loaded snapshot plus the trail of newer
// files that failed validation on the way to it.
type LoadResult struct {
	// State is the snapshot payload.
	State []byte
	// Epoch is the loaded snapshot's epoch stamp.
	Epoch uint64
	// Path is the file the state came from.
	Path string
	// Skipped holds one *SnapshotError per newer file that failed
	// validation and was passed over. Non-empty Skipped means the loaded
	// state may predate frames that were already transmitted — protocol
	// frontiers recovered from it must not be trusted for dedup.
	Skipped []error
}

// LoadLatest returns the newest snapshot that validates. Files that fail
// (torn, corrupt, stale-epoch) are recorded in Skipped and passed over.
// With no snapshot files at all it returns ErrNoSnapshot; with files but
// none valid it returns the newest file's *SnapshotError.
func (s *Store) LoadLatest() (*LoadResult, error) {
	s.mu.Lock()
	epochs := s.listEpochsLocked()
	s.mu.Unlock()
	if len(epochs) == 0 {
		return nil, ErrNoSnapshot
	}
	var skipped []error
	for i := len(epochs) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, SnapshotFileName(epochs[i]))
		state, err := readSnapshotFile(path, epochs[i])
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		return &LoadResult{State: state, Epoch: epochs[i], Path: path, Skipped: skipped}, nil
	}
	return nil, skipped[0]
}

// readSnapshotFile validates one snapshot file end to end: magic,
// version, checksum, exact length, and the epoch-matches-filename rule
// that catches stale replays.
func readSnapshotFile(path string, wantEpoch uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &SnapshotError{Path: path, Reason: "read", Err: err}
	}
	if len(data) < snapHeaderLen+snapTrailerLen {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("truncated: %d bytes is shorter than the minimal snapshot", len(data))}
	}
	body, trailer := data[:len(data)-snapTrailerLen], data[len(data)-snapTrailerLen:]
	if got, want := binary.LittleEndian.Uint64(trailer), crc64.Checksum(body, crcSnap); got != want {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("checksum mismatch: file says %016x, content hashes to %016x", got, want)}
	}
	if binary.LittleEndian.Uint32(body) != snapMagic {
		return nil, &SnapshotError{Path: path, Reason: "bad magic"}
	}
	if body[4] != snapVersion {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("unsupported version %d", body[4])}
	}
	epoch := binary.LittleEndian.Uint64(body[5:])
	if epoch != wantEpoch {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("stale-epoch replay: file named for epoch %d embeds epoch %d", wantEpoch, epoch)}
	}
	payloadLen := int(binary.LittleEndian.Uint32(body[13:]))
	if payloadLen > MaxSnapshotBytes || payloadLen != len(body)-snapHeaderLen {
		return nil, &SnapshotError{Path: path, Reason: fmt.Sprintf("declared payload length %d does not match the %d bytes present", payloadLen, len(body)-snapHeaderLen)}
	}
	return body[snapHeaderLen:], nil
}

// --- aggregator/relay state payload codec ---

const (
	stateMagic   uint32 = 0x54534c53 // "SLST" little-endian
	stateVersion byte   = 1

	stateKindAggregator byte = 0
	stateKindRelay      byte = 1
)

// MarshalState serializes the aggregator's durable state — the per-agent
// table (contribution envelope, generation, seq frontier, cursor, depth),
// the candidate pool, and the protocol counters — as a snapshot payload
// for Store.Save. The bytes are deterministic: agents and candidates are
// written in sorted order. Each row has a second sketch slot, written
// empty: older binaries kept a rejoined agent's earlier generations there,
// and a restore folds them into the contribution.
func (a *Aggregator) MarshalState() ([]byte, error) {
	state, _, err := a.marshalState(stateKindAggregator, nil)
	return state, err
}

// marshalState returns the snapshot payload with the applied-frame count
// it holds, read under the same lock.
func (a *Aggregator) marshalState(kind byte, upstream []byte) (state []byte, applied uint64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	buf := make([]byte, 0, 1<<12)
	buf = binary.LittleEndian.AppendUint32(buf, stateMagic)
	buf = append(buf, stateVersion, kind)
	for _, c := range a.stats.counters() {
		buf = binary.LittleEndian.AppendUint64(buf, c)
	}

	ids := make([]string, 0, len(a.agents))
	for id := range a.agents {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		e := a.agents[id]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
		buf = append(buf, id...)
		buf = binary.LittleEndian.AppendUint64(buf, e.gen)
		buf = binary.LittleEndian.AppendUint64(buf, e.lastSeq)
		buf = binary.LittleEndian.AppendUint64(buf, e.cursor)
		buf = append(buf, e.depth)
		if buf, err = appendOptionalSketch(buf, e.contrib); err != nil {
			return nil, 0, err
		}
		buf = append(buf, 0) // the second sketch slot, empty
	}

	cands := make([]uint64, 0, len(a.candidates))
	for it := range a.candidates {
		cands = append(cands, it)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cands)))
	for _, it := range cands {
		buf = binary.LittleEndian.AppendUint64(buf, it)
	}

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(upstream)))
	buf = append(buf, upstream...)
	return buf, a.stats.Applied, nil
}

// appendOptionalSketch writes a presence byte and, when present, a
// length-prefixed universal envelope.
func appendOptionalSketch(buf []byte, s salsa.Sketch) ([]byte, error) {
	if s == nil {
		return append(buf, 0), nil
	}
	env, err := salsa.Marshal(s)
	if err != nil {
		return nil, err
	}
	buf = append(buf, 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(env)))
	return append(buf, env...), nil
}

// restoreState rebuilds the aggregator table from a snapshot payload,
// replacing all current state. Every decoded sketch is checked for
// compatibility against the configured reference topology, so a snapshot
// from a differently-configured cluster is rejected rather than merged.
// It returns the role kind the snapshot was written by and the opaque
// upstream section (empty for aggregator snapshots).
func (a *Aggregator) restoreState(data []byte) (kind byte, upstream []byte, err error) {
	r := frameReader{data: data}
	if r.u32() != stateMagic {
		return 0, nil, &SnapshotError{Reason: "state payload: bad magic"}
	}
	if v := r.u8(); v != stateVersion {
		return 0, nil, &SnapshotError{Reason: fmt.Sprintf("state payload: unsupported version %d", v)}
	}
	kind = r.u8()
	if kind != stateKindAggregator && kind != stateKindRelay {
		return 0, nil, &SnapshotError{Reason: fmt.Sprintf("state payload: unknown role kind %d", kind)}
	}
	var stats AggregatorStats
	stats.setCounters(&r)

	nAgents := int(r.u32())
	if r.err != nil || nAgents > len(data) { // every agent row is > 1 byte
		return 0, nil, &SnapshotError{Reason: "state payload: truncated header"}
	}
	agents := make(map[string]*agentEntry, nAgents)
	for i := 0; i < nAgents; i++ {
		idLen := int(r.u16())
		if idLen == 0 || idLen > MaxAgentIDLen {
			return 0, nil, &SnapshotError{Reason: fmt.Sprintf("state payload: agent id length %d outside [1,%d]", idLen, MaxAgentIDLen)}
		}
		idBytes := r.take(idLen)
		if idBytes == nil {
			return 0, nil, &SnapshotError{Reason: "state payload: truncated agent row"}
		}
		e := &agentEntry{}
		id := string(idBytes)
		e.gen, e.lastSeq, e.cursor = r.u64(), r.u64(), r.u64()
		e.depth = r.u8()
		if e.contrib, err = a.readOptionalSketch(&r); err != nil {
			return 0, nil, err
		}
		// An older binary kept a rejoined agent's earlier generations in
		// the second slot: fold the current one in on top, in the order
		// that binary merged them.
		var older salsa.Sketch
		if older, err = a.readOptionalSketch(&r); err != nil {
			return 0, nil, err
		}
		if older != nil {
			if e.contrib != nil {
				if err := salsa.MergeInto(older, e.contrib); err != nil {
					return 0, nil, &SnapshotError{Reason: "state payload: earlier generations do not merge", Err: err}
				}
			}
			e.contrib = older
		}
		if r.err != nil {
			return 0, nil, &SnapshotError{Reason: "state payload: truncated agent row"}
		}
		agents[id] = e
	}

	nCand := int(r.u32())
	if r.err != nil || nCand > (len(data)-r.pos)/8 {
		return 0, nil, &SnapshotError{Reason: "state payload: truncated candidate pool"}
	}
	candidates := make(map[uint64]struct{}, nCand)
	for i := 0; i < nCand; i++ {
		candidates[r.u64()] = struct{}{}
	}

	upLen := int(r.u32())
	upstream = r.take(upLen)
	if r.err != nil || r.pos != len(r.data) {
		return 0, nil, &SnapshotError{Reason: "state payload: truncated or oversized trailer"}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	for _, e := range agents {
		e.lastSeen = now
	}
	a.agents = agents
	a.candidates = candidates
	a.stats = stats
	return kind, upstream, nil
}

// readOptionalSketch reads a presence byte plus envelope and decodes it,
// verifying merge compatibility against the reference topology.
func (a *Aggregator) readOptionalSketch(r *frameReader) (salsa.Sketch, error) {
	if r.u8() == 0 {
		return nil, nil
	}
	envLen := int(r.u32())
	if envLen <= 0 || envLen > a.maxEnvelope {
		return nil, &SnapshotError{Reason: fmt.Sprintf("state payload: envelope of %d bytes outside (0,%d]", envLen, a.maxEnvelope)}
	}
	env := r.take(envLen)
	if env == nil {
		return nil, &SnapshotError{Reason: "state payload: truncated envelope"}
	}
	decoded, err := salsa.Unmarshal(env)
	if err != nil {
		return nil, &SnapshotError{Reason: "state payload: undecodable envelope", Err: err}
	}
	core, err := salsa.DeltaCore(decoded)
	if err != nil {
		return nil, &SnapshotError{Reason: "state payload: envelope has no delta core", Err: err}
	}
	if err := salsa.MergeInto(core, a.ref); err != nil {
		return nil, &SnapshotError{Reason: "state payload: envelope incompatible with the configured topology", Err: err}
	}
	return core, nil
}

// counters returns the stats fields in the fixed snapshot order; keep in
// sync with setCounters (append-only: new fields bump stateVersion).
func (s *AggregatorStats) counters() []uint64 {
	return []uint64{
		s.Applied, s.Duplicates, s.Resyncs, s.Heartbeats,
		s.Rejected, s.CandidatesDropped, s.Persists, s.PersistErrors,
	}
}

func (s *AggregatorStats) setCounters(r *frameReader) {
	s.Applied, s.Duplicates, s.Resyncs, s.Heartbeats = r.u64(), r.u64(), r.u64(), r.u64()
	s.Rejected, s.CandidatesDropped, s.Persists, s.PersistErrors = r.u64(), r.u64(), r.u64(), r.u64()
}

// persistor serializes marshal+save cycles so snapshot epochs are
// written in content order even when Persist is called from several
// goroutines (the HTTP apply path and a relay's upstream loop).
type persistor struct {
	mu    sync.Mutex
	store *Store
	every int
	// state produces the snapshot payload and the count of applied frames
	// it holds: the aggregator's table for a standalone aggregator, the
	// relay's table+upstream marshal for a relay.
	state func() ([]byte, uint64, error)
}

// persist runs one marshal+save cycle and returns the new epoch and the
// applied-frame count the snapshot holds.
func (p *persistor) persist() (epoch, applied uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	state, applied, err := p.state()
	if err != nil {
		return 0, 0, err
	}
	epoch, err = p.store.Save(state)
	return epoch, applied, err
}
