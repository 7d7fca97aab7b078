package salsa

import (
	"fmt"
	"sync"

	"salsa/internal/hashing"
)

// validateShardCount caps the shard count at the envelope decoder's
// maxShards, so every constructible sharded topology is serializable. The
// lower bound stays with the callers: the Spec algebra requires a positive
// count, while NewSharded rounds non-positive counts up to one shard.
func validateShardCount(shards int) error {
	if shards > maxShards {
		return fmt.Errorf("salsa: shard count %d exceeds the maximum %d", shards, maxShards)
	}
	return nil
}

// shardCount rounds a requested shard count up to the power of two the
// router needs (minimum 1).
func shardCount(shards int) int {
	n := 1
	for n < shards {
		n *= 2
	}
	return n
}

// Sharded is the concurrent ingestion layer: a generic wrapper that routes
// items to one of several independently-locked shard sketches by a hash of
// the item, so updates from many goroutines proceed in parallel. Each shard
// is a complete sketch of its substream — an item always lands in the same
// shard, so point queries consult exactly one shard and keep the backend's
// error guarantee over that substream.
//
// It works over any backend implementing Sketch: CountMin (plain or
// conservative), CountSketch, and the Monitor heavy-hitter tracker all
// qualify; Build(ShardedBy(...)) returns the typed wrappers in sharded.go,
// and NewSharded takes a custom factory. Memory is the per-shard
// Options.Width times the shard count; size widths accordingly.
//
// Single-item Update/Increment lock the owning shard per call. The batch
// APIs (UpdateBatch/IncrementBatch and the typed QueryBatch wrappers)
// partition a slice of items by shard first and lock each shard once per
// batch, which is the high-throughput path; Writer adds per-goroutine
// buffering on top so even single-item ingestion amortizes lock traffic.
type Sharded[S Sketch] struct {
	shards []shard[S]
	mask   uint64
	seed   uint64
	parts  sync.Pool // *partition scratch for the batch APIs
}

// shard pads each lock + sketch pointer pair to its own cache line so
// goroutines hammering different shards do not false-share.
type shard[S Sketch] struct {
	mu sync.Mutex
	sk S
	_  [48]byte
}

// NewSharded returns a Sharded sketch with the given number of shards
// (rounded up to a power of two, minimum 1), panicking beyond the
// envelope's maximum so every constructible sharded topology stays
// serializable. routeSeed drives the item-to-shard hash; factory builds
// shard i's backend. Give shards distinct sketch seeds (as ShardedBy does)
// unless you intend to Merge them later, in which case they must share
// one.
func NewSharded[S Sketch](shards int, routeSeed uint64, factory func(shard int) S) *Sharded[S] {
	if err := validateShardCount(shards); err != nil {
		panic(err)
	}
	n := shardCount(shards)
	s := &Sharded[S]{
		shards: make([]shard[S], n),
		mask:   uint64(n - 1),
		seed:   routeSeed,
	}
	s.parts.New = func() any { return newPartition(n) }
	for i := range s.shards {
		s.shards[i].sk = factory(i)
	}
	return s
}

// newShardedFromShards wires pre-built shard sketches into a Sharded with
// the given routing seed; the envelope decoder uses it to reconstruct
// sharded topologies shard for shard. len(sks) must be a power of two.
func newShardedFromShards[S Sketch](routeSeed uint64, sks []S) *Sharded[S] {
	return NewSharded(len(sks), routeSeed, func(i int) S { return sks[i] })
}

func (s *Sharded[S]) route(item uint64) *shard[S] {
	return &s.shards[hashing.Index(item, s.seed, s.mask)]
}

// Update adds count occurrences of item; safe for concurrent use.
func (s *Sharded[S]) Update(item uint64, count int64) {
	sh := s.route(item)
	sh.mu.Lock()
	sh.sk.Update(item, count)
	sh.mu.Unlock()
}

// Increment adds one occurrence of item; safe for concurrent use.
func (s *Sharded[S]) Increment(item uint64) { s.Update(item, 1) }

// UpdateBatch adds count occurrences of every item; safe for concurrent
// use. Items are partitioned by shard and each shard is locked once, with
// its items applied in slice order — so a batch leaves every shard in the
// identical state as the equivalent sequence of single Updates.
func (s *Sharded[S]) UpdateBatch(items []uint64, count int64) {
	if len(items) == 0 {
		return
	}
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		sh.sk.UpdateBatch(items, count)
		sh.mu.Unlock()
		return
	}
	p := s.parts.Get().(*partition)
	p.scatterItems(items, s.seed, s.mask)
	for i := range s.shards {
		if len(p.items[i]) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.sk.UpdateBatch(p.items[i], count)
		sh.mu.Unlock()
	}
	p.reset()
	s.parts.Put(p)
}

// IncrementBatch adds one occurrence of every item; safe for concurrent use.
func (s *Sharded[S]) IncrementBatch(items []uint64) { s.UpdateBatch(items, 1) }

// Shards returns the number of shards.
func (s *Sharded[S]) Shards() int { return len(s.shards) }

// Shard returns shard i's backend. The caller must not mutate it while
// other goroutines are ingesting; quiesce writers first (it is meant for
// read-out, Merge and marshal after ingestion).
func (s *Sharded[S]) Shard(i int) S { return s.shards[i].sk }

// MemoryBits returns the total footprint across shards.
func (s *Sharded[S]) MemoryBits() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.sk.MemoryBits()
		sh.mu.Unlock()
	}
	return total
}

// query routes item to its shard and answers under the shard lock.
func query[S Sketch, V any](s *Sharded[S], item uint64, q func(S, uint64) V) V {
	sh := s.route(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return q(sh.sk, item)
}

// queryBatch partitions items by shard, answers each shard's sub-batch
// under its lock via q (which must follow the QueryBatch buffer contract),
// and scatters the answers back into dst in the items' original positions.
func queryBatch[S Sketch, V any](s *Sharded[S], items []uint64, dst []V, q func(S, []uint64, []V) []V) []V {
	for len(dst) < len(items) {
		var zero V
		dst = append(dst, zero)
	}
	dst = dst[:len(items)]
	if len(items) == 0 {
		return dst
	}
	if len(s.shards) == 1 {
		sh := &s.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return q(sh.sk, items, dst[:0])
	}
	p := s.parts.Get().(*partition)
	p.scatter(items, s.seed, s.mask)
	var vals []V
	for i := range s.shards {
		if len(p.items[i]) == 0 {
			continue
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		vals = q(sh.sk, p.items[i], vals[:0])
		sh.mu.Unlock()
		for k, j := range p.pos[i] {
			dst[j] = vals[k]
		}
	}
	p.reset()
	s.parts.Put(p)
	return dst
}

// partition is reusable scratch for splitting a batch by destination shard:
// items[i] holds shard i's sub-batch, pos[i] the original index of each.
type partition struct {
	items [][]uint64
	pos   [][]int32
}

func newPartition(shards int) *partition {
	return &partition{items: make([][]uint64, shards), pos: make([][]int32, shards)}
}

func (p *partition) scatter(items []uint64, seed, mask uint64) {
	for j, x := range items {
		i := hashing.Index(x, seed, mask)
		p.items[i] = append(p.items[i], x)
		p.pos[i] = append(p.pos[i], int32(j))
	}
}

// scatterItems is scatter without the original-position bookkeeping, which
// only queries need — updates don't scatter answers back.
func (p *partition) scatterItems(items []uint64, seed, mask uint64) {
	for _, x := range items {
		i := hashing.Index(x, seed, mask)
		p.items[i] = append(p.items[i], x)
	}
}

func (p *partition) reset() {
	for i := range p.items {
		p.items[i] = p.items[i][:0]
		p.pos[i] = p.pos[i][:0]
	}
}

// Writer is a per-goroutine ingestion buffer over a Sharded sketch: items
// accumulate in per-shard buffers and a shard is locked only when its
// buffer fills (or on Flush), amortizing lock traffic and hashing across
// the buffered batch. A Writer is NOT safe for concurrent use — give each
// ingesting goroutine its own and Flush before reading estimates. Because
// every shard still sees its items in arrival order, a flushed Writer
// leaves the sketch in the identical state as unbuffered ingestion.
//
// Items a Writer holds buffered are invisible to queries and belong to no
// window bucket yet: under Tick-driven windows, an item buffered before a
// Tick but flushed after lands in the post-Tick bucket. Flush before Tick
// when bucket assignment must follow arrival time.
type Writer[S Sketch] struct {
	s      *Sharded[S]
	bufs   [][]uint64
	batch  int
	closed bool
}

// NewWriter returns an ingestion buffer flushing each shard at batch items
// (default 256).
func (s *Sharded[S]) NewWriter(batch int) *Writer[S] {
	if batch <= 0 {
		batch = 256
	}
	bufs := make([][]uint64, len(s.shards))
	for i := range bufs {
		bufs[i] = make([]uint64, 0, batch)
	}
	return &Writer[S]{s: s, bufs: bufs, batch: batch}
}

// Increment buffers one occurrence of item, flushing its shard's buffer if
// full.
func (w *Writer[S]) Increment(item uint64) {
	w.mustOpen()
	i := hashing.Index(item, w.s.seed, w.s.mask)
	w.bufs[i] = append(w.bufs[i], item)
	if len(w.bufs[i]) >= w.batch {
		w.flushShard(int(i))
	}
}

// Update adds count occurrences of item. Counts other than 1 flush the
// shard's buffer first (preserving per-shard arrival order) and apply
// directly.
func (w *Writer[S]) Update(item uint64, count int64) {
	if count == 1 {
		w.Increment(item)
		return
	}
	w.mustOpen()
	i := hashing.Index(item, w.s.seed, w.s.mask)
	w.flushShard(int(i))
	w.s.Update(item, count)
}

// Flush pushes every buffered item into the sketch.
func (w *Writer[S]) Flush() {
	w.mustOpen()
	for i := range w.bufs {
		w.flushShard(i)
	}
}

func (w *Writer[S]) flushShard(i int) {
	if len(w.bufs[i]) == 0 {
		return
	}
	sh := &w.s.shards[i]
	sh.mu.Lock()
	sh.sk.UpdateBatch(w.bufs[i], 1)
	sh.mu.Unlock()
	w.bufs[i] = w.bufs[i][:0]
}

// Close flushes any buffered items and retires the Writer; Close is
// idempotent, and any other use after Close panics. It makes writer
// teardown explicit, symmetric with the epoch layer's EpochWriter.
func (w *Writer[S]) Close() {
	if w.closed {
		return
	}
	w.Flush()
	w.closed = true
}

func (w *Writer[S]) mustOpen() {
	if w.closed {
		panic("salsa: use of closed Writer")
	}
}
