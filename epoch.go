package salsa

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Epoch-merged ingestion: the lock-free alternative to Sharded.
//
// Sharded routes every item through a hash and a shard mutex. The SWAR
// merge engine inverted that cost model — combining two sketches is now
// cheaper than contending on them — so this layer gives each writer
// goroutine a *private* sketch it updates with plain single-threaded loops
// (zero ingest-path locks, zero compare-and-swap), and a merger folds
// retired private sketches into one shared read view at epoch boundaries.
//
// The coordination protocol is a per-slot seqlock, all writer-side
// operations being plain atomic stores of writer-owned words:
//
//	writer op:  seq ← odd, e ← epoch, active ← e,
//	            ingest into bufs[e&1], counts[e&1] += n, seq ← even
//	merger:     epoch ← old+1 on every slot, then per slot wait until
//	            seq is even or active ≥ old+1, then exclusively drain
//	            and reset bufs[old&1]
//
// Writers are wait-free: no writer ever waits for the merger or another
// writer. The merger's wait is bounded by one in-flight operation per
// slot: once a writer observes the new epoch it writes the other buffer,
// so the drained buffer is quiescent. Sequentially consistent atomics
// make the retired buffer's contents visible to the merger (it returns
// from the wait only after loading a value the writer stored *after* its
// last write to that buffer) and the merger's reset visible to the writer
// (which reuses the buffer only after loading an epoch the merger stored
// *after* resetting it).
//
// Queries read the shared view under the view mutex, which excludes drain
// merges and direct updates, never writer ingestion. Estimates trail
// ingestion by at most the data of the current epoch plus any unflushed
// writer buffers — the bounded staleness the Pending method quantifies.

// epochPrivate is the operation surface a per-writer private sketch
// exposes to the epoch core.
type epochPrivate interface {
	Update(item uint64, count int64)
	UpdateBatch(items []uint64, count int64)
	Reset()
	SizeBits() int
}

// maxEpochWriters bounds the writer-slot count, matching the envelope
// decoder's hostile-payload bound so every constructible topology stays
// serializable.
const maxEpochWriters = 1 << 16

// epochShrinkAfter is the number of consecutive empty drains after which
// an unclaimed surplus slot (beyond the configured writer count) is
// released — the drain-pressure signal for shrinking.
const epochShrinkAfter = 3

// epochSlot is one writer's private double-buffered sketch pair plus its
// seqlock words. Slots are stable heap allocations: growing the slot
// slice copies pointers, never slots, so a writer's slot reference stays
// valid across resizes.
type epochSlot struct {
	seq    atomic.Uint64 // odd while the owner is mid-operation
	epoch  atomic.Uint64 // selects the absorbing buffer (epoch&1)
	active atomic.Uint64 // epoch observed by the in-flight operation
	counts [2]atomic.Uint64
	bufs   [2]epochPrivate

	// Control-plane state, guarded by Epoch.mu.
	claimed     bool
	allocated   bool // private buffers exist (built on first claim)
	emptyDrains int
}

// Epoch is the epoch-merged ingestion core every Epoch* type embeds. It
// owns the writer slots, the shared read view and the direct-path
// Update/Increment/UpdateBatch that write that view; the Epoch* type adds
// the read methods of its view's kind.
type Epoch struct {
	// mu serializes the control plane: Advance, NewWriter/Close slot
	// claims, adaptive resizing, and Marshal. Never held on the ingest
	// path.
	mu sync.Mutex
	// viewMu guards the shared view: queries, drain merges, and direct
	// (non-writer) updates all take it. A plain mutex, not an RWMutex:
	// sketch queries hold the lock for well under 100ns, and at that
	// scale a reader-writer lock's extra atomic traffic (~2x the
	// uncontended cost) outweighs any reader parallelism — and it is
	// what keeps the direct compatibility path at cost parity with the
	// Sharded layer it replaces.
	viewMu sync.Mutex

	slots atomic.Pointer[[]*epochSlot]
	epoch atomic.Uint64

	view   Sketch
	newBuf func() epochPrivate
	drain  func(buf epochPrivate, n uint64) // called with viewMu held

	base int // configured writer slots; the adaptive shrink floor

	// Stats, guarded by mu.
	drained uint64 // items folded into the view
	grown   uint64 // slots added beyond base by NewWriter demand
	shrunk  uint64 // surplus slots released by empty-drain pressure
}

// newEpoch builds the core over view with writers slots; newBuf makes a
// private buffer and drain folds a retired one into view. Private buffers
// are allocated lazily on a slot's first claim, so memory scales with
// actual writer goroutines (and decoded envelopes declaring many writer
// slots cost nothing until writers appear).
func newEpoch[P epochPrivate](view Sketch, writers int, newBuf func() P, drain func(P, uint64)) *Epoch {
	e := &Epoch{
		view:   view,
		newBuf: func() epochPrivate { return newBuf() },
		drain:  func(buf epochPrivate, n uint64) { drain(buf.(P), n) },
		base:   writers,
	}
	slots := make([]*epochSlot, writers)
	for i := range slots {
		slots[i] = e.newSlot()
	}
	e.slots.Store(&slots)
	return e
}

// epochCore returns the core itself; the Epoch* types inherit it by
// embedding, so code that needs the core reaches every epoch topology
// through one interface case.
func (e *Epoch) epochCore() *Epoch { return e }

func (e *Epoch) newSlot() *epochSlot {
	sl := &epochSlot{}
	sl.epoch.Store(e.epoch.Load())
	return sl
}

// EpochWriter is a per-goroutine ingestion handle: Increment/Update
// buffer locally and flush into the goroutine's private sketch slot with
// plain single-threaded loops. Methods must not be called concurrently
// on one writer; create one writer per goroutine.
type EpochWriter struct {
	e      *Epoch
	slot   *epochSlot
	seq    uint64 // local mirror of slot.seq (always even between ops)
	buf    []uint64
	closed bool
}

// defaultEpochBatch sizes EpochWriter buffers; amortizes the op's five
// atomic accesses and the per-batch hashing setup.
const defaultEpochBatch = 256

// NewWriter claims a private slot and returns an ingestion handle for
// one goroutine. batch is the local buffer size (≤ 0 means the default
// 256). When every slot is claimed the slot set grows — the demand half
// of adaptive resharding; surplus slots are released again after
// epochShrinkAfter consecutive empty drains. NewWriter panics once
// maxEpochWriters slots are claimed.
func (e *Epoch) NewWriter(batch int) *EpochWriter {
	if batch <= 0 {
		batch = defaultEpochBatch
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	slots := *e.slots.Load()
	var sl *epochSlot
	for _, s := range slots {
		if !s.claimed {
			sl = s
			break
		}
	}
	if sl == nil {
		if len(slots) >= maxEpochWriters {
			panic(fmt.Sprintf("salsa: more than %d concurrent epoch writers", maxEpochWriters))
		}
		sl = e.newSlot()
		grown := make([]*epochSlot, len(slots)+1)
		copy(grown, slots)
		grown[len(slots)] = sl
		e.slots.Store(&grown)
		e.grown++
	}
	sl.claimed = true
	sl.emptyDrains = 0
	if !sl.allocated {
		sl.bufs[0], sl.bufs[1] = e.newBuf(), e.newBuf()
		sl.allocated = true
	}
	return &EpochWriter{
		e:    e,
		slot: sl,
		seq:  sl.seq.Load(),
		buf:  make([]uint64, 0, batch),
	}
}

// enter begins a seqlock-protected private-sketch operation and returns
// the absorbing buffer index.
//
//salsa:nolock
func (w *EpochWriter) enter() int {
	w.seq++
	w.slot.seq.Store(w.seq) // odd: operation in flight
	e := w.slot.epoch.Load()
	w.slot.active.Store(e)
	return int(e & 1)
}

// exit records n ingested items and ends the operation.
//
//salsa:nolock
func (w *EpochWriter) exit(b int, n uint64) {
	c := &w.slot.counts[b]
	c.Store(c.Load() + n) // single-writer: load/store, no RMW needed
	w.seq++
	w.slot.seq.Store(w.seq) // even: operation complete
}

//salsa:nolock
func (w *EpochWriter) mustOpen() {
	if w.closed {
		panic("salsa: operation on closed epoch writer")
	}
}

// Increment buffers one occurrence of item, flushing the local buffer
// into the private sketch when full.
//
//salsa:nolock
func (w *EpochWriter) Increment(item uint64) {
	w.mustOpen()
	w.buf = append(w.buf, item)
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
}

// Update adds count occurrences of item. count == 1 buffers like
// Increment; other counts flush the buffer (preserving operation order)
// and apply immediately.
//
//salsa:nolock
func (w *EpochWriter) Update(item uint64, count int64) {
	if count == 1 {
		w.Increment(item)
		return
	}
	w.mustOpen()
	w.flush()
	b := w.enter()
	w.slot.bufs[b].Update(item, count)
	w.exit(b, 1)
}

// UpdateBatch adds count occurrences of every item, in order. The batch
// is applied directly to the private sketch (after flushing any buffered
// increments), so large batches pay the seqlock once.
//
//salsa:nolock
func (w *EpochWriter) UpdateBatch(items []uint64, count int64) {
	w.mustOpen()
	w.flush()
	if len(items) == 0 {
		return
	}
	b := w.enter()
	w.slot.bufs[b].UpdateBatch(items, count)
	w.exit(b, uint64(len(items)))
}

// Flush drains the local increment buffer into the private sketch. Data
// becomes globally visible only after the next epoch drain.
//
//salsa:nolock
func (w *EpochWriter) Flush() {
	w.mustOpen()
	w.flush()
}

//salsa:nolock
func (w *EpochWriter) flush() {
	if len(w.buf) == 0 {
		return
	}
	b := w.enter()
	w.slot.bufs[b].UpdateBatch(w.buf, 1)
	w.exit(b, uint64(len(w.buf)))
	w.buf = w.buf[:0]
}

// Close flushes and releases the writer's slot for reuse. The slot's
// undrained data is folded into the view by the next Advance.
func (w *EpochWriter) Close() {
	if w.closed {
		return
	}
	w.flush()
	w.closed = true
	w.e.mu.Lock()
	w.slot.claimed = false
	w.e.mu.Unlock()
}

// Advance cuts one epoch: every slot is flipped to a fresh private
// buffer and the retired buffers are merged into the shared view. After
// writers quiesce (Flush or Close), one Advance makes all their data
// visible to queries. Concurrent with ingestion it is a consistent cut:
// an operation lands entirely in the retired epoch or entirely in the
// new one.
func (e *Epoch) Advance() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advanceLocked()
}

func (e *Epoch) advanceLocked() {
	old := e.epoch.Load()
	next := old + 1
	slots := *e.slots.Load()
	for _, sl := range slots {
		sl.epoch.Store(next)
	}
	e.epoch.Store(next)

	retired := int(old & 1)
	canDrop := len(slots) - e.base // never shrink below the configured count
	dropped := 0
	kept := make([]*epochSlot, 0, len(slots))
	for _, sl := range slots {
		waitSettled(sl, next)
		if n := sl.counts[retired].Load(); n != 0 {
			e.viewMu.Lock()
			e.drain(sl.bufs[retired], n)
			e.viewMu.Unlock()
			sl.bufs[retired].Reset()
			sl.counts[retired].Store(0)
			sl.emptyDrains = 0
			e.drained += n
		} else {
			sl.emptyDrains++
		}
		// Shrink half of adaptive resharding: a surplus unclaimed slot
		// that produced nothing for epochShrinkAfter drains and has
		// nothing pending in either buffer is released.
		if dropped < canDrop && !sl.claimed && sl.emptyDrains >= epochShrinkAfter &&
			sl.counts[0].Load() == 0 && sl.counts[1].Load() == 0 {
			dropped++
			e.shrunk++
			continue
		}
		kept = append(kept, sl)
	}
	if dropped > 0 {
		e.slots.Store(&kept)
	}
}

// waitSettled blocks until sl's owner cannot be writing the retired
// buffer: its seqlock is even (any later operation observes the new
// epoch) or its in-flight operation already observed it.
func waitSettled(sl *epochSlot, next uint64) {
	for i := 0; ; i++ {
		if sl.seq.Load()&1 == 0 || sl.active.Load() >= next {
			return
		}
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Microsecond)
		}
	}
}

// AutoAdvance starts a background merger goroutine advancing the epoch
// every interval (≤ 0 means 1ms). The returned stop function performs a
// final Advance and waits for the goroutine to exit; it is idempotent.
func (e *Epoch) AutoAdvance(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				e.Advance()
				return
			case <-t.C:
				e.Advance()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// Pending returns the number of items ingested into private sketches but
// not yet drained into the view — the bounded-staleness gauge. Items
// still in writers' local buffers (not yet Flushed) are not counted.
func (e *Epoch) Pending() uint64 {
	var n uint64
	for _, sl := range *e.slots.Load() {
		n += sl.counts[0].Load() + sl.counts[1].Load()
	}
	return n
}

// Epochs returns the number of epoch cuts performed.
func (e *Epoch) Epochs() uint64 { return e.epoch.Load() }

// EpochStats is a point-in-time snapshot of the epoch layer's adaptive
// state.
type EpochStats struct {
	Epochs  uint64 // epoch cuts performed
	Drained uint64 // items folded into the view
	Pending uint64 // ingested but not yet drained
	Slots   int    // current writer slots
	Writers int    // slots claimed by open writers
	Grown   uint64 // slots added beyond the configured count
	Shrunk  uint64 // surplus slots released by empty-drain pressure
}

// Stats returns drain-pressure and resharding counters.
func (e *Epoch) Stats() EpochStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	slots := *e.slots.Load()
	st := EpochStats{
		Epochs:  e.epoch.Load(),
		Drained: e.drained,
		Slots:   len(slots),
		Grown:   e.grown,
		Shrunk:  e.shrunk,
	}
	for _, sl := range slots {
		st.Pending += sl.counts[0].Load() + sl.counts[1].Load()
		if sl.claimed {
			st.Writers++
		}
	}
	return st
}

// Update adds count occurrences of item to the shared view directly:
// immediately visible to queries and serialized by the view lock — the
// compatibility path that satisfies Sketch. Use NewWriter for the
// lock-free path.
func (e *Epoch) Update(item uint64, count int64) {
	e.viewMu.Lock()
	e.view.Update(item, count)
	e.viewMu.Unlock()
}

// Increment adds one occurrence of item to the shared view directly.
func (e *Epoch) Increment(item uint64) { e.Update(item, 1) }

// UpdateBatch adds count occurrences of every item to the shared view
// directly, serialized.
func (e *Epoch) UpdateBatch(items []uint64, count int64) {
	e.viewMu.Lock()
	e.view.UpdateBatch(items, count)
	e.viewMu.Unlock()
}

// MemoryBits returns the footprint in bits: the shared view plus both
// private buffers of every writer slot. It takes the control-plane lock
// because buffer allocation is lazy.
func (e *Epoch) MemoryBits() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	bits := e.view.MemoryBits()
	for _, sl := range *e.slots.Load() {
		if sl.allocated {
			bits += sl.bufs[0].SizeBits() + sl.bufs[1].SizeBits()
		}
	}
	return bits
}

// tick cuts an epoch and then rotates the windowed view by one bucket, so
// every operation completed before the call lands in the pre-Tick bucket.
// Writer operations concurrent with tick land coherently in the pre- or
// post-Tick bucket, never split. It backs the windowed Epoch* types' Tick.
func (e *Epoch) tick() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advanceLocked()
	e.viewMu.Lock()
	e.view.(interface{ Tick() }).Tick()
	e.viewMu.Unlock()
}
