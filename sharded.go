package salsa

import (
	"fmt"
	"sort"
)

// Typed Sharded query wrappers. Sharded[S] itself is query-agnostic
// (CountMin estimates are uint64, CountSketch's int64, a Monitor answers
// top-k), so each backend gets a thin wrapper adding its query surface.
// Shard sketch seeds are derived per shard, so distinct shards never share
// hash functions with each other.

// shardedWrapper returns the function that wraps shard backends of sk's
// type into the Sharded* type Build produces for them, or nil when sk's
// type cannot back a sharded topology. Build, Marshal and the envelope
// decoder share it, so the three agree on the sharded type set.
func shardedWrapper(sk Sketch) func(routeSeed uint64, sks []Sketch) (Sketch, error) {
	switch sk.(type) {
	case *CountMin:
		return wrapShards(func(s *Sharded[*CountMin]) Sketch { return &ShardedCountMin{s} })
	case *CountSketch:
		return wrapShards(func(s *Sharded[*CountSketch]) Sketch { return &ShardedCountSketch{s} })
	case *Monitor:
		return wrapShards(func(s *Sharded[*Monitor]) Sketch { return &ShardedMonitor{s} })
	case *WindowedCountMin:
		return wrapShards(func(s *Sharded[*WindowedCountMin]) Sketch { return &ShardedWindowedCountMin{s} })
	case *WindowedCountSketch:
		return wrapShards(func(s *Sharded[*WindowedCountSketch]) Sketch { return &ShardedWindowedCountSketch{s} })
	case *WindowedMonitor:
		return wrapShards(func(s *Sharded[*WindowedMonitor]) Sketch { return &ShardedWindowedMonitor{s} })
	case *AEE:
		return wrapShards(func(s *Sharded[*AEE]) Sketch { return &ShardedAEE{s} })
	case *Distinct:
		return wrapShards(func(s *Sharded[*Distinct]) Sketch { return &ShardedDistinct{s} })
	case *ColdFilter:
		return wrapShards(func(s *Sharded[*ColdFilter]) Sketch { return &ShardedColdFilter{s} })
	case *Pyramid:
		return wrapShards(func(s *Sharded[*Pyramid]) Sketch { return &ShardedPyramid{s} })
	}
	return nil
}

// wrapShards narrows shard backends to S, rejecting mixed-type shard sets,
// and wraps them with the given routing seed.
func wrapShards[S Sketch](wrap func(*Sharded[S]) Sketch) func(uint64, []Sketch) (Sketch, error) {
	return func(routeSeed uint64, sks []Sketch) (Sketch, error) {
		shards := make([]S, len(sks))
		for i, sk := range sks {
			s, ok := sk.(S)
			if !ok {
				return nil, fmt.Errorf("salsa: shard %d type %T does not match shard 0", i, sk)
			}
			shards[i] = s
		}
		return wrap(newShardedFromShards(routeSeed, shards)), nil
	}
}

// ShardedCountMin is a concurrency-safe CountMin (or Conservative Update)
// sketch. Estimates keep the CountMin overestimate guarantee: each shard
// is a complete sketch of its substream. Merging the shards into one
// sketch is not needed for point queries.
type ShardedCountMin struct {
	*Sharded[*CountMin]
}

// Query returns the frequency estimate; safe for concurrent use.
func (s *ShardedCountMin) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*CountMin).Query)
}

// QueryBatch writes the estimate of items[j] into dst[j] and returns dst,
// appending if dst is short (pass nil to allocate); safe for concurrent
// use. Each shard is locked once per batch.
func (s *ShardedCountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	return queryBatch(s.Sharded, items, dst, (*CountMin).QueryBatch)
}

// ShardedCountSketch is a concurrency-safe CountSketch.
type ShardedCountSketch struct {
	*Sharded[*CountSketch]
}

// Query returns the (unbiased) frequency estimate; safe for concurrent use.
func (s *ShardedCountSketch) Query(item uint64) int64 {
	return query(s.Sharded, item, (*CountSketch).Query)
}

// QueryBatch writes the estimate of items[j] into dst[j] and returns dst,
// appending if dst is short (pass nil to allocate); safe for concurrent
// use.
func (s *ShardedCountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	return queryBatch(s.Sharded, items, dst, (*CountSketch).QueryBatch)
}

// ShardedMonitor is a concurrency-safe heavy-hitter tracker: each shard
// runs a Monitor over its substream, and Top/HeavyHitters merge the
// per-shard heaps. Since an item lives in exactly one shard, the merged
// view tracks (up to) k·shards candidates with per-item estimates from the
// owning shard.
type ShardedMonitor struct {
	*Sharded[*Monitor]
}

// Query returns the frequency estimate from the owning shard's sketch.
func (s *ShardedMonitor) Query(item uint64) uint64 {
	return query(s.Sharded, item, func(m *Monitor, x uint64) uint64 { return m.Sketch().Query(x) })
}

// candidates returns every tracked item across all shards (up to k·shards
// of them), in Top order.
func (s *ShardedMonitor) candidates() []ItemCount {
	return shardCandidates(s.Sharded, (*Monitor).Top)
}

// Top returns the k tracked items with the largest estimates across all
// shards, in descending order; equal estimates order by item.
func (s *ShardedMonitor) Top() []ItemCount {
	return topK(s.candidates(), s.Shard(0).heap.Cap())
}

// HeavyHitters returns the tracked items whose estimate is at least phi
// times volume, in descending order — drawn from the full k·shards
// candidate set, so it can return more than k items.
func (s *ShardedMonitor) HeavyHitters(phi float64, volume uint64) []ItemCount {
	threshold := phi * float64(volume)
	var out []ItemCount
	for _, e := range s.candidates() {
		if float64(e.Count) >= threshold {
			out = append(out, e)
		}
	}
	return out
}

// ShardedWindowedCountMin is a concurrency-safe sliding-window CountMin
// (or Conservative Update) sketch: each shard runs a complete
// WindowedCountMin over its substream. With count-based rotation every
// shard rotates on its own substream count, so shard windows slide
// independently at roughly the global rate divided by the shard count;
// size bucketItems per shard, or use Tick to rotate all shards together
// from one timer.
type ShardedWindowedCountMin struct {
	*Sharded[*WindowedCountMin]
}

// Query returns the windowed frequency estimate; safe for concurrent use.
func (s *ShardedWindowedCountMin) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*WindowedCountMin).Query)
}

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate); safe for
// concurrent use.
func (s *ShardedWindowedCountMin) QueryBatch(items []uint64, dst []uint64) []uint64 {
	return queryBatch(s.Sharded, items, dst, (*WindowedCountMin).QueryBatch)
}

// Tick rotates every shard's window by one bucket; safe for concurrent use.
func (s *ShardedWindowedCountMin) Tick() {
	tickShards(s.Sharded, (*WindowedCountMin).Tick)
}

// ShardedWindowedCountSketch is a concurrency-safe sliding-window
// CountSketch; rotation semantics are as for ShardedWindowedCountMin.
type ShardedWindowedCountSketch struct {
	*Sharded[*WindowedCountSketch]
}

// Query returns the (unbiased) windowed estimate; safe for concurrent use.
func (s *ShardedWindowedCountSketch) Query(item uint64) int64 {
	return query(s.Sharded, item, (*WindowedCountSketch).Query)
}

// QueryBatch writes the windowed estimate of items[j] into dst[j] and
// returns dst, appending if dst is short (pass nil to allocate); safe for
// concurrent use.
func (s *ShardedWindowedCountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	return queryBatch(s.Sharded, items, dst, (*WindowedCountSketch).QueryBatch)
}

// Tick rotates every shard's window by one bucket; safe for concurrent use.
func (s *ShardedWindowedCountSketch) Tick() {
	tickShards(s.Sharded, (*WindowedCountSketch).Tick)
}

// ShardedAEE is a concurrency-safe AEE estimator: each shard runs an
// independent estimator over its substream, downsampling on its own
// overflow schedule, and point queries route to the owning shard.
type ShardedAEE struct {
	*Sharded[*AEE]
}

// Query returns the frequency estimate from the owning shard's estimator;
// safe for concurrent use.
func (s *ShardedAEE) Query(item uint64) float64 {
	return query(s.Sharded, item, (*AEE).Query)
}

// ShardedDistinct is a concurrency-safe Linear Counting distinct
// estimator. Routing partitions the item space, so the shard estimates
// count disjoint item sets and Estimate sums them.
type ShardedDistinct struct {
	*Sharded[*Distinct]
}

// Query returns the frequency estimate from the owning shard's sketch;
// safe for concurrent use.
func (s *ShardedDistinct) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*Distinct).Query)
}

// Estimate returns the summed per-shard Linear Counting estimates — exact
// composition, since the routing hash partitions the item space across
// shards. It errors if any shard's estimator is out of range.
func (s *ShardedDistinct) Estimate() (float64, error) {
	total := 0.0
	for i := 0; i < s.Shards(); i++ {
		sh := &s.Sharded.shards[i]
		sh.mu.Lock()
		est, err := sh.sk.Estimate()
		sh.mu.Unlock()
		if err != nil {
			return 0, err
		}
		total += est
	}
	return total, nil
}

// ShardedColdFilter is a concurrency-safe Cold Filter pipeline: each shard
// runs complete filter layers and a second stage over its substream.
type ShardedColdFilter struct {
	*Sharded[*ColdFilter]
}

// Query returns the conservative frequency estimate from the owning
// shard's pipeline; safe for concurrent use.
func (s *ShardedColdFilter) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*ColdFilter).Query)
}

// ShardedPyramid is a concurrency-safe Pyramid sketch.
type ShardedPyramid struct {
	*Sharded[*Pyramid]
}

// Query returns the frequency estimate from the owning shard's sketch;
// safe for concurrent use.
func (s *ShardedPyramid) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*Pyramid).Query)
}

// ShardedWindowedMonitor tracks heavy hitters over sliding windows under
// concurrent ingestion: each shard runs a complete WindowedMonitor over
// its substream, and Top/HeavyHitters merge the per-shard candidate sets
// re-estimated against each shard's own live window. With count-based
// rotation each shard's window slides on its own substream count; use
// Tick to rotate all shards together from one timer.
type ShardedWindowedMonitor struct {
	*Sharded[*WindowedMonitor]
}

// Query returns the windowed frequency estimate from the owning shard.
func (s *ShardedWindowedMonitor) Query(item uint64) uint64 {
	return query(s.Sharded, item, (*WindowedMonitor).Query)
}

// Tick rotates every shard's window by one bucket; safe for concurrent
// use.
func (s *ShardedWindowedMonitor) Tick() {
	tickShards(s.Sharded, (*WindowedMonitor).Tick)
}

// WindowVolume returns the summed live-window volumes across shards.
func (s *ShardedWindowedMonitor) WindowVolume() uint64 {
	var total uint64
	for i := 0; i < s.Shards(); i++ {
		sh := &s.Sharded.shards[i]
		sh.mu.Lock()
		total += sh.sk.WindowVolume()
		sh.mu.Unlock()
	}
	return total
}

// candidates returns every shard's windowed candidate set (up to
// k·B·shards items), in Top order.
func (s *ShardedWindowedMonitor) candidates() []ItemCount {
	return shardCandidates(s.Sharded, (*WindowedMonitor).candidates)
}

// Top returns the k candidates with the largest windowed estimates across
// all shards, in descending order; equal estimates order by item.
func (s *ShardedWindowedMonitor) Top() []ItemCount {
	return topK(s.candidates(), s.Shard(0).k)
}

// shardCandidates gathers every shard's candidates under its lock and
// sorts them by descending estimate, equal estimates by ascending item —
// the order Monitor.Top and WindowedMonitor.Top use, so a k cut keeps the
// same items whether or not the tracker is sharded.
func shardCandidates[S Sketch](s *Sharded[S], of func(S) []ItemCount) []ItemCount {
	var all []ItemCount
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		all = append(all, of(sh.sk)...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
	return all
}

// topK truncates Top-ordered candidates to the tracker capacity k.
func topK(all []ItemCount, k int) []ItemCount {
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// HeavyHitters returns every candidate whose windowed estimate is at
// least phi times the summed live-window volume, in descending order —
// drawn from the full cross-shard candidate set, so it can return more
// than k items.
func (s *ShardedWindowedMonitor) HeavyHitters(phi float64) []ItemCount {
	threshold := phi * float64(s.WindowVolume())
	var out []ItemCount
	for _, e := range s.candidates() {
		if float64(e.Count) < threshold {
			break // candidates are sorted descending
		}
		out = append(out, e)
	}
	return out
}

// tickShards rotates every shard's window under its lock.
func tickShards[S Sketch](s *Sharded[S], tick func(S)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		tick(sh.sk)
		sh.mu.Unlock()
	}
}

// routeSeed derives the item-to-shard routing seed; it differs from every
// shard sketch seed so routing stays independent of in-sketch hashing.
func routeSeed(opt Options) uint64 { return opt.Seed ^ 0x5a15ac0c0 }

// shardOptions gives shard i its own sketch seed. Shards of one Sharded
// must not share hash functions, or their substreams' error terms would
// correlate; use NewSharded directly with a fixed seed if you need
// mergeable shards instead.
func shardOptions(opt Options, i int) Options {
	o := opt
	o.Seed = opt.Seed + uint64(i)*0x9e37
	return o
}
