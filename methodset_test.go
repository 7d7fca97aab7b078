package salsa

import "time"

// The exported method set of every Build product, pinned at compile time:
// refactoring a concurrency layer or moving forwarding methods onto a
// shared core must not drop a method or change its signature. The epoch
// types' NewWriter is absent because its result type is the one exported
// signature that layer's redesign changes.
var (
	_ interface {
		Depth() int
		Distinct() (float64, error)
		Increment(uint64)
		IncrementBatch([]uint64)
		MarshalBinary() ([]byte, error)
		MemoryBits() int
		Merge(*CountMin)
		Options() Options
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		QueryBytes([]byte) uint64
		Subtract(*CountMin)
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		UpdateBytes([]byte, int64)
		Width() int
	} = (*CountMin)(nil)
	_ interface {
		Depth() int
		Increment(uint64)
		IncrementBatch([]uint64)
		MarshalBinary() ([]byte, error)
		MemoryBits() int
		Merge(*CountSketch)
		Options() Options
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Subtract(*CountSketch)
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		Width() int
	} = (*CountSketch)(nil)
	_ interface {
		HeavyHitters(float64, uint64) []ItemCount
		MemoryBits() int
		Process(uint64)
		Sketch() *CountMin
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*Monitor)(nil)
	_ interface {
		MemoryBits() int
		Process(uint64)
		Sketch() *CountSketch
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*TopK)(nil)
	_ interface {
		Distinct() float64
		Entropy() float64
		HeapK() int
		HeavyHitters() []ItemCount
		Levels() int
		MemoryBits() int
		Moment(float64) float64
		Options() Options
		Process(uint64)
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		Volume() uint64
	} = (*UnivMon)(nil)
	_ interface {
		Downsamples() uint
		MemoryBits() int
		Options() Options
		Process(uint64)
		Query(uint64) float64
		SampleProb() float64
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*AEE)(nil)
	_ interface {
		Estimate() (float64, error)
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Query(uint64) uint64
		StdError(float64) float64
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*Distinct)(nil)
	_ interface {
		MemoryBits() int
		Options() Options
		Process(uint64)
		Query(uint64) uint64
		Stage2Volume() uint64
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ColdFilter)(nil)
	_ interface {
		Increment(uint64)
		Layers() int
		MemoryBits() int
		Options() Options
		Query(uint64) uint64
		Reset()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*Pyramid)(nil)
	_ interface {
		BucketItems() int
		Buckets() int
		Depth() int
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		Options() Options
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		Rotations() uint64
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		Width() int
		WindowVolume() uint64
	} = (*WindowedCountMin)(nil)
	_ interface {
		BucketItems() int
		Buckets() int
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		Options() Options
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Rotations() uint64
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*WindowedCountSketch)(nil)
	_ interface {
		HeavyHitters(float64) []ItemCount
		MemoryBits() int
		Process(uint64)
		Query(uint64) uint64
		Rotations() uint64
		Sketch() *WindowedCountMin
		Tick()
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*WindowedMonitor)(nil)
	_ interface {
		Estimate() (float64, error)
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Query(uint64) uint64
		Rotations() uint64
		StdError(float64) float64
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*WindowedDistinct)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*CountMin]
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		Shard(int) *CountMin
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedCountMin)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*CountSketch]
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Shard(int) *CountSketch
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedCountSketch)(nil)
	_ interface {
		HeavyHitters(float64, uint64) []ItemCount
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*Monitor]
		Query(uint64) uint64
		Shard(int) *Monitor
		Shards() int
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedMonitor)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*WindowedCountMin]
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		Shard(int) *WindowedCountMin
		Shards() int
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedWindowedCountMin)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*WindowedCountSketch]
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Shard(int) *WindowedCountSketch
		Shards() int
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedWindowedCountSketch)(nil)
	_ interface {
		HeavyHitters(float64) []ItemCount
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*WindowedMonitor]
		Query(uint64) uint64
		Shard(int) *WindowedMonitor
		Shards() int
		Tick()
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*ShardedWindowedMonitor)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*AEE]
		Query(uint64) float64
		Shard(int) *AEE
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedAEE)(nil)
	_ interface {
		Estimate() (float64, error)
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*Distinct]
		Query(uint64) uint64
		Shard(int) *Distinct
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedDistinct)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*ColdFilter]
		Query(uint64) uint64
		Shard(int) *ColdFilter
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedColdFilter)(nil)
	_ interface {
		Increment(uint64)
		IncrementBatch([]uint64)
		MemoryBits() int
		NewWriter(int) *Writer[*Pyramid]
		Query(uint64) uint64
		Shard(int) *Pyramid
		Shards() int
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*ShardedPyramid)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		Epochs() uint64
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		Stats() EpochStats
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		View() *CountMin
	} = (*EpochCountMin)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		Epochs() uint64
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Stats() EpochStats
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		View() *CountSketch
	} = (*EpochCountSketch)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		Epochs() uint64
		HeavyHitters(float64, uint64) []ItemCount
		K() int
		MemoryBits() int
		Options() Options
		Pending() uint64
		Process(uint64)
		Query(uint64) uint64
		Stats() EpochStats
		Top() []ItemCount
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*EpochMonitor)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		Epochs() uint64
		Estimate() (float64, error)
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) uint64
		Stats() EpochStats
		StdError(float64) float64
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
	} = (*EpochDistinct)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		BucketItems() int
		Buckets() int
		Epochs() uint64
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) uint64
		QueryBatch([]uint64, []uint64) []uint64
		Rotations() uint64
		Stats() EpochStats
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*EpochWindowedCountMin)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		BucketItems() int
		Buckets() int
		Epochs() uint64
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) int64
		QueryBatch([]uint64, []int64) []int64
		Rotations() uint64
		Stats() EpochStats
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*EpochWindowedCountSketch)(nil)
	_ interface {
		Advance()
		AutoAdvance(time.Duration) func()
		Buckets() int
		Epochs() uint64
		Estimate() (float64, error)
		Increment(uint64)
		MemoryBits() int
		Options() Options
		Pending() uint64
		Query(uint64) uint64
		Rotations() uint64
		Stats() EpochStats
		StdError(float64) float64
		Tick()
		Update(uint64, int64)
		UpdateBatch([]uint64, int64)
		WindowVolume() uint64
	} = (*EpochWindowedDistinct)(nil)
)
