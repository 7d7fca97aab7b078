package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"salsa"
)

// metric is one measured value with its unit and how many samples it
// summarises.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one workload run.
type result struct {
	Workload  string
	Correct   bool
	Problem   string // why Correct is false
	Attempted int
	Failed    int
	Metrics   []metric
	// OverheadPct is how much slower items flowed while tracing was on, in
	// percent of the untraced rate; NaN on untraced runs.
	OverheadPct float64
}

// writerStats is what the writer measured.
type writerStats struct {
	// windowItems and windowTime add up, per second of the writer-alone
	// phase, the items and the time of the steps that ended in it.
	windowItems []int64
	windowTime  []time.Duration
	// items and wireBytes are what the agents ingested and what agents and
	// relays put on the wire in the writer-alone phase, where pushMs and
	// visibleMs are taken too.
	items     int64
	wireBytes uint64
	pushMs    []float64
	visibleMs []float64
	attempted int
	failed    int
	// modeItems and modeTime split items and time by tracing state (off,
	// on), for the tracing overhead.
	modeItems [2]int64
	modeTime  [2]time.Duration
}

// itemsPerSecond is the median over the writer-alone phase's seconds of
// the items each second's steps ingested per second they took, so a
// passing stall on a shared host moves it less than it moves the mean.
func (ws *writerStats) itemsPerSecond() float64 {
	var xs []float64
	for i, n := range ws.windowItems {
		if ws.windowTime[i] > 0 {
			xs = append(xs, float64(n)/ws.windowTime[i].Seconds())
		}
	}
	return median(xs)
}

// readerStats is what the open-loop reader measured.
type readerStats struct {
	lateMs            []float64
	attempted, failed int
	heapMax           uint64
}

// runWorkload builds w's cluster, drives it for the given time, checks the
// root against the sequential reference and returns the end-to-end metrics
// (trace false) or the per-layer metrics (trace true). A traced run writes
// its spans to spansPath.
func runWorkload(w workload, seed uint64, seconds float64, trace bool, spansPath string) (*result, error) {
	traces := w.traces(seed, w.agents, w.traceLen)
	dir, err := os.MkdirTemp("", "pipebench-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tr := newTracer()
	var c *cluster
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		c, err = newCluster(w, tr, traces, filepath.Join(dir, strconv.Itoa(i)))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()
	items := queryBatches(seed, traces)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctx := context.Background()
	// Two phases: the writer alone, then the writer beside the open-loop
	// reader.
	t0 := time.Now()
	t1 := t0.Add(time.Duration(seconds * writerShare * float64(time.Second)))
	end := t0.Add(time.Duration(seconds * float64(time.Second)))
	seconds1 := max(1, int(t1.Sub(t0)/time.Second))
	ws := writerStats{windowItems: make([]int64, seconds1), windowTime: make([]time.Duration, seconds1)}
	wire0 := c.wireBytes()
	c.write(ctx, t0, phase{start: t0, end: t1, measure: true}, trace, &ws)
	ws.wireBytes = c.wireBytes() - wire0
	var (
		rs readerStats
		wg sync.WaitGroup
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.write(ctx, t0, phase{start: t1, end: end}, trace, &ws)
	}()
	go func() {
		defer wg.Done()
		rs = c.read(ctx, t1, end, items)
	}()
	wg.Wait()
	tr.on.Store(false)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	res := &result{
		Workload:    w.name,
		Attempted:   ws.attempted + rs.attempted,
		Failed:      ws.failed + rs.failed,
		OverheadPct: math.NaN(),
	}
	exact := c.exact()
	if err := c.quiesce(ctx); err != nil {
		res.Problem = err.Error()
	} else if err := c.verify(exact, items[0]); err != nil {
		res.Problem = err.Error()
	}
	res.Correct = res.Problem == ""
	if !res.Correct {
		return res, nil
	}

	if !trace {
		res.Metrics, err = c.endToEnd(setups, ws)
		return res, err
	}
	rate := func(m int) float64 { return float64(ws.modeItems[m]) / ws.modeTime[m].Seconds() }
	res.OverheadPct = 100 * (rate(0) - rate(1)) / rate(0)
	res.Metrics, err = c.perLayer(rs, &before, &after, exact, items[0], dir)
	if err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// queryBatches draws the reader's item batches from the agents' sources.
func queryBatches(seed uint64, traces [][]uint64) [][]uint64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	out := make([][]uint64, 64)
	for i := range out {
		b := make([]uint64, queryItems)
		for j := range b {
			tr := traces[rng.Intn(len(traces))]
			b[j] = tr[rng.Intn(len(tr))]
		}
		out[i] = b
	}
	return out
}

// phase is one part of the timed run. Only in the writer-alone phase,
// measure, does the writer record its rates and latencies; in the mixed
// phase it is the write load beside the reader.
type phase struct {
	start, end time.Time
	measure    bool
}

// write drives agents and relays in a closed loop until the phase ends,
// each step starting when the one before it ended. A round is one step per
// agent, each ingesting a frame's worth of items and pushing it, then one
// push per relay. On a traced run tracing is on during odd seconds since
// runStart.
func (c *cluster) write(ctx context.Context, runStart time.Time, p phase, trace bool, ws *writerStats) {
	steps := len(c.edges) + len(c.relays)
	for i := 0; ; i++ {
		stepStart := time.Now()
		if !stepStart.Before(p.end) {
			return
		}
		mode := 0
		if trace && int(stepStart.Sub(runStart)/time.Second)%2 == 1 {
			mode = 1
		}
		c.tr.on.Store(mode == 1)

		items := 0
		if k := i % steps; k < len(c.edges) {
			e := c.edges[k]
			e.feed(c.w.frameItems, c.tr)
			items = c.w.frameItems
			start, end, err := c.pushAgent(ctx, e)
			ws.attempted++
			switch {
			case err != nil:
				ws.failed++
			case !p.measure:
			case len(c.relays) == 0:
				// The root applied the frame before it acked it.
				ws.pushMs = append(ws.pushMs, ms(end.Sub(start)))
				ws.visibleMs = append(ws.visibleMs, ms(end.Sub(start)))
			default:
				ws.pushMs = append(ws.pushMs, ms(end.Sub(start)))
				up := c.upstreamOf(k)
				up.pending = append(up.pending, start)
			}
		} else {
			r := c.relays[k-len(c.edges)]
			end, err := c.pushRelay(ctx, r)
			ws.attempted++
			if err != nil {
				ws.failed++
			} else {
				if p.measure {
					for _, s := range r.pending {
						ws.visibleMs = append(ws.visibleMs, ms(end.Sub(s)))
					}
				}
				r.pending = r.pending[:0]
			}
		}

		took := time.Since(stepStart)
		ws.modeItems[mode] += int64(items)
		ws.modeTime[mode] += took
		if !p.measure {
			continue
		}
		ws.items += int64(items)
		if sec := int(time.Since(p.start) / time.Second); sec < len(ws.windowItems) {
			ws.windowItems[sec] += int64(items)
			ws.windowTime[sec] += took
		}
	}
}

// wireBytes sums the encoded frames every agent and relay has attempted.
func (c *cluster) wireBytes() uint64 {
	var n uint64
	for _, e := range c.edges {
		n += e.agent.Stats().WireBytes
	}
	for _, r := range c.relays {
		n += r.relay.Stats().WireBytes
	}
	return n
}

// read is the mixed phase's reader: on a fixed schedule it asks the root
// for estimates (10/s) and for its top 10 (5/s), an open loop whose
// lateness it records.
func (c *cluster) read(ctx context.Context, t0, deadline time.Time, batches [][]uint64) readerStats {
	var rs readerStats
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	for slot := 0; ; slot++ {
		due := t0.Add(time.Duration(slot) * readSlot)
		if !due.Before(deadline) {
			return rs
		}
		if slot%2 != 0 && slot%4 != 1 {
			continue
		}
		time.Sleep(time.Until(due))
		rs.lateMs = append(rs.lateMs, ms(time.Since(due)))
		metrics.Read(heap)
		rs.heapMax = max(rs.heapMax, heap[0].Value.Uint64()+heap[1].Value.Uint64())
		c.readOnce(ctx, slot, batches, &rs)
	}
}

// readOnce sends the read of a schedule slot: a query on even slots, a top
// on the others.
func (c *cluster) readOnce(ctx context.Context, slot int, batches [][]uint64, rs *readerStats) {
	var err error
	if slot%2 == 0 {
		sp := c.tr.begin("loadgen.query", fmt.Sprintf("q%d", slot), -1)
		_, err = c.query(withSpan(ctx, sp), batches[(slot/2)%len(batches)])
		c.tr.end(sp, queryItems)
	} else {
		sp := c.tr.begin("loadgen.top", fmt.Sprintf("t%d", slot), -1)
		_, err = c.top(withSpan(ctx, sp), 10)
		c.tr.end(sp, 0)
	}
	rs.attempted++
	if err != nil {
		rs.failed++
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// get fetches a root endpoint and decodes its JSON answer.
func (c *cluster) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.root.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// query asks the root for estimates of items over HTTP.
func (c *cluster) query(ctx context.Context, items []uint64) (map[string]int64, error) {
	q := url.Values{}
	for _, it := range items {
		q.Add("item", strconv.FormatUint(it, 10))
	}
	var out struct {
		Estimates map[string]int64 `json:"estimates"`
	}
	err := c.get(ctx, "/v1/query?"+q.Encode(), &out)
	return out.Estimates, err
}

// top asks the root for its k heaviest candidates over HTTP.
func (c *cluster) top(ctx context.Context, k int) ([]salsa.ItemCount, error) {
	var out struct {
		Top []struct {
			Item  uint64 `json:"item"`
			Count int64  `json:"count"`
		} `json:"top"`
	}
	if err := c.get(ctx, "/v1/top?k="+strconv.Itoa(k), &out); err != nil {
		return nil, err
	}
	top := make([]salsa.ItemCount, len(out.Top))
	for i, t := range out.Top {
		top[i] = salsa.ItemCount{Item: t.Item, Count: t.Count}
	}
	return top, nil
}

// reference is one sketch of the root's topology fed the consumed multiset
// sequentially. CMS-SALSA with sum merge is order-independent for
// non-negative updates, so weighted updates give the same bytes as the
// item-by-item stream.
func (c *cluster) reference(exact map[uint64]int64) (*salsa.CountMin, error) {
	ref, err := salsa.Build(c.spec)
	if err != nil {
		return nil, err
	}
	cm := ref.(*salsa.CountMin)
	for x, n := range exact {
		cm.Update(x, n)
	}
	return cm, nil
}

// verify checks the quiesced root against the sequential reference: the
// root's merged sketch must marshal to the reference's bytes, and its HTTP
// query and top answers must equal the reference's estimates.
func (c *cluster) verify(exact map[uint64]int64, items []uint64) error {
	ref, err := c.reference(exact)
	if err != nil {
		return err
	}
	want, err := salsa.Marshal(ref)
	if err != nil {
		return err
	}
	got, err := c.root.agg.SnapshotBytes()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("root snapshot (%d bytes) differs from the sequential reference (%d bytes)", len(got), len(want))
	}
	ctx := context.Background()
	ests, err := c.query(ctx, items)
	if err != nil {
		return err
	}
	for _, it := range items {
		if got, want := ests[strconv.FormatUint(it, 10)], int64(ref.Query(it)); got != want {
			return fmt.Errorf("/v1/query item %d: %d, reference %d", it, got, want)
		}
	}
	top, err := c.top(ctx, 10)
	if err != nil {
		return err
	}
	if len(top) == 0 {
		return fmt.Errorf("/v1/top returned nothing")
	}
	for _, t := range top {
		if want := int64(ref.Query(t.Item)); t.Count != want {
			return fmt.Errorf("/v1/top item %d: %d, reference %d", t.Item, t.Count, want)
		}
	}
	return nil
}

// endToEnd computes the metrics a user of the cluster sees.
func (c *cluster) endToEnd(setups []float64, ws writerStats) ([]metric, error) {
	state, err := c.root.agg.MarshalState()
	if err != nil {
		return nil, err
	}
	p := func(name, unit string, xs []float64, q float64) metric {
		return metric{Name: name, Unit: unit, Value: quantile(xs, q), Samples: len(xs)}
	}
	return []metric{
		p("setup_s", "s", setups, 0.5),
		{Name: "items_per_s", Unit: "items/s", Value: ws.itemsPerSecond(), Samples: len(ws.windowItems)},
		p("push_ms_p50", "ms", ws.pushMs, 0.5),
		p("push_ms_p90", "ms", ws.pushMs, 0.9),
		p("visible_ms_p50", "ms", ws.visibleMs, 0.5),
		{Name: "wire_bytes_per_item", Unit: "B", Value: float64(ws.wireBytes) / float64(ws.items), Samples: len(ws.pushMs)},
		{Name: "root_state_bytes", Unit: "B", Value: float64(len(state)), Samples: 1},
	}, nil
}
