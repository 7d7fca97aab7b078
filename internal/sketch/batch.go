package sketch

import (
	"salsa/internal/core"
	"salsa/internal/hashing"
)

// Batch ingestion and queries. A batch is processed in fixed-size chunks;
// within a chunk each row hashes all items in one hashing.IndexVec call and
// applies them in one AddSlots call, so the per-item interface-dispatch and
// hash-call overhead is paid once per row per chunk. Items are applied in
// slice order within every row, which keeps batch ingestion bit-for-bit
// identical to the equivalent sequence of single Updates (SALSA counter
// merges fire at exactly the same points).

// batchChunk bounds the scratch buffers; 256 slots keep them L1-resident
// and stack-allocatable.
const batchChunk = 256

// UpdateBatch processes the stream updates ⟨items[j], v⟩ for every j, in
// order. It is equivalent to calling Update(items[j], v) for each item and
// leaves the sketch in the identical state, only faster. In conservative
// mode v must be non-negative.
//
//salsa:hotpath
func (c *CMS) UpdateBatch(items []uint64, v int64) {
	if len(items) == 0 {
		return
	}
	if c.conservative {
		if v < 0 {
			panic("sketch: negative update in conservative mode")
		}
		c.conservativeBatch(items, uint64(v))
		return
	}
	if c.chunkSlots == nil {
		//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
		c.chunkSlots = make([]uint32, batchChunk)
	}
	slots := c.chunkSlots
	for len(items) > 0 {
		chunk := items
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i, r := range c.rows {
			hashing.IndexVec(chunk, c.seeds[i], c.mask, slots)
			r.AddSlots(slots[:len(chunk)], v)
		}
		items = items[len(chunk):]
	}
}

// conservativeBatch is the conservative-update rule over a batch: the rows
// are coupled through the per-item estimate, so items are applied one at a
// time, but each row's slots are hashed once per chunk (the sequential path
// likewise hashes once per row, feeding both the min and the raise pass).
// The per-item passes run through the monomorphic cores of fast.go when the
// sketch is homogeneous.
//
//salsa:hotpath
func (c *CMS) conservativeBatch(items []uint64, v uint64) {
	if c.slotScratch == nil {
		//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
		c.slotScratch = make([][]uint32, len(c.rows))
		for i := range c.slotScratch {
			//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
			c.slotScratch[i] = make([]uint32, batchChunk)
		}
	}
	for len(items) > 0 {
		chunk := items
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i := range c.rows {
			hashing.IndexVec(chunk, c.seeds[i], c.mask, c.slotScratch[i])
		}
		for j := range chunk {
			c.conservativeItem(c.slotScratch, j, v)
		}
		items = items[len(chunk):]
	}
}

// QueryBatch writes the estimate f̂(items[j]) into dst[j] for every item and
// returns dst, appending if dst is short (pass nil to allocate). Each row is
// hashed once per chunk.
//
//salsa:hotpath
func (c *CMS) QueryBatch(items []uint64, dst []uint64) []uint64 {
	for len(dst) < len(items) {
		//salsa:ignore hotpath dst grows by documented contract: pass nil to allocate, presized to avoid it
		dst = append(dst, 0)
	}
	var slots [batchChunk]uint32
	done := 0
	for done < len(items) {
		chunk := items[done:]
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		out := dst[done : done+len(chunk)]
		for j := range out {
			out[j] = ^uint64(0)
		}
		for i, r := range c.rows {
			hashing.IndexVec(chunk, c.seeds[i], c.mask, slots[:])
			minInto(r, slots[:len(chunk)], out)
		}
		done += len(chunk)
	}
	return dst[:len(items)]
}

// UpdateBatch processes the stream updates ⟨items[j], v⟩ for every j, in
// order; equivalent to (but faster than) single Updates. The slot and sign
// buffers live on the sketch: stack buffers would escape through the
// row-interface AddSignedSlots call and allocate per batch.
//
//salsa:hotpath
func (c *CountSketch) UpdateBatch(items []uint64, v int64) {
	if c.chunkSlots == nil {
		//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
		c.chunkSlots = make([]uint32, batchChunk)
		//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
		c.chunkSigns = make([]int8, batchChunk)
	}
	slots, signs := c.chunkSlots, c.chunkSigns
	for len(items) > 0 {
		chunk := items
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i, r := range c.rows {
			hashing.IndexVec(chunk, c.idxSeeds[i], c.mask, slots)
			hashing.SignVec(chunk, c.signSeeds[i], signs)
			r.AddSignedSlots(slots[:len(chunk)], signs[:len(chunk)], v)
		}
		items = items[len(chunk):]
	}
}

// readSigned writes signs[j]·row-value-at-slots[j] into the strided scratch
// column i (the CountSketch QueryBatch inner loop), devirtualized per
// concrete row type.
//
//salsa:hotpath
func readSigned(r SignedRow, slots []uint32, signs []int8, scratch []int64, i, d int) {
	switch row := r.(type) {
	case *core.SalsaSign:
		core.SalsaSignReadSlots(row, slots, signs, scratch, d, i)
	case *core.FixedSign:
		core.FixedSignReadSlots(row, slots, signs, scratch, d, i)
	default:
		for j, slot := range slots {
			scratch[j*d+i] = int64(signs[j]) * r.Value(int(slot))
		}
	}
}

// QueryBatch writes the estimate of items[j] into dst[j] for every item and
// returns dst, appending if dst is short (pass nil to allocate). Like Query,
// it shares the sketch's scratch buffers and must not run concurrently with
// other operations on c.
//
//salsa:hotpath
func (c *CountSketch) QueryBatch(items []uint64, dst []int64) []int64 {
	for len(dst) < len(items) {
		//salsa:ignore hotpath dst grows by documented contract: pass nil to allocate, presized to avoid it
		dst = append(dst, 0)
	}
	d := len(c.rows)
	if c.batchScratch == nil {
		//salsa:ignore hotpath one-time lazy scratch init, amortized across every later batch
		c.batchScratch = make([]int64, d*batchChunk)
	}
	var (
		slots [batchChunk]uint32
		signs [batchChunk]int8
	)
	done := 0
	for done < len(items) {
		chunk := items[done:]
		if len(chunk) > batchChunk {
			chunk = chunk[:batchChunk]
		}
		for i, r := range c.rows {
			hashing.IndexVec(chunk, c.idxSeeds[i], c.mask, slots[:])
			hashing.SignVec(chunk, c.signSeeds[i], signs[:])
			readSigned(r, slots[:len(chunk)], signs[:len(chunk)], c.batchScratch, i, d)
		}
		out := dst[done : done+len(chunk)]
		for j := range chunk {
			copy(c.medBuf, c.batchScratch[j*d:(j+1)*d])
			out[j] = median(c.medBuf)
		}
		done += len(chunk)
	}
	return dst[:len(items)]
}
