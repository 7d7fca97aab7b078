package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// Per-layer metrics. The layers the workload drives (loadgen, sketch,
// agent, http) come from spans recorded during the traced seconds of the
// run. The rest are probes run after the cluster quiesced, on the run's
// own state: its root table, its agents' contributions and its last
// frames, so they follow what the workload built without disturbing the
// timed phase.

// perLayer computes every per-layer metric of a traced run.
func (c *cluster) perLayer(rs readerStats, before, after *runtime.MemStats, exact map[uint64]int64, items []uint64, dir string) ([]metric, error) {
	tr := c.tr
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, Samples: n})
	}
	// us adds the q-quantile of ns timings in µs.
	us := func(name string, ns []float64, q float64) {
		add(name, "us", quantile(ns, q)/1e3, len(ns))
	}

	add("loadgen.late_ms_p99", "ms", quantile(rs.lateMs, 0.99), len(rs.lateMs))
	add("sketch.ingest.ns_per_item", "ns", tr.perItem("sketch.ingest"), len(tr.durations("sketch.ingest")))
	add("sketch.monitor.ns_per_item", "ns", tr.perItem("sketch.monitor"), len(tr.durations("sketch.monitor")))

	var agent salsad.AgentStats
	var frames, envBytes int64
	var recent []*salsad.Push
	for _, e := range c.edges {
		s := e.agent.Stats()
		agent.FramesAcked += s.FramesAcked
		agent.Retries += s.Retries
		agent.Attempts += s.Attempts
		agent.WireBytes += s.WireBytes
		frames += e.wire.frames
		envBytes += e.wire.envBytes
		recent = append(recent, e.wire.recent...)
	}
	recent = recent[max(0, len(recent)-keepFrames):]
	us("agent.push.us_p50", tr.durations("agent.push"), 0.5)
	us("agent.cut.us_p50", tr.selfTimes("agent.push"), 0.5)
	add("agent.frames", "count", float64(agent.FramesAcked), 1)
	add("agent.retries", "count", float64(agent.Retries), 1)

	enc, dec, err := wireProbe(recent)
	if err != nil {
		return nil, err
	}
	us("wire.encode.us_p50", enc, 0.5)
	us("wire.decode.us_p50", dec, 0.5)
	add("wire.envelope_bytes_per_frame", "B", float64(envBytes)/float64(frames), int(frames))
	add("wire.frame_bytes_per_frame", "B", float64(agent.WireBytes)/float64(agent.Attempts), int(agent.Attempts))

	for _, q := range []float64{0.5, 0.99} {
		us(fmt.Sprintf("http.push.client_us_p%.0f", q*100), tr.durations("http.push.client"), q)
		us(fmt.Sprintf("http.push.server_us_p%.0f", q*100), tr.durations("http.push.server"), q)
	}
	us("http.query.server_us_p50", tr.durations("http.query.server"), 0.5)
	us("http.top.server_us_p50", tr.durations("http.top.server"), 0.5)

	aggMetrics, err := c.aggProbe(items, recent)
	if err != nil {
		return nil, err
	}
	out = append(out, aggMetrics...)
	nrmse, recall, err := c.accuracy(exact)
	if err != nil {
		return nil, err
	}
	add("agg.nrmse", "ratio", nrmse, len(exact))
	add("agg.top10_recall", "ratio", recall, 10)

	relay, err := c.relayProbe(filepath.Join(dir, "relay-probe"))
	if err != nil {
		return nil, err
	}
	out = append(out, relay...)

	restore, save, err := persistProbe(c.spec, c.root.agg, filepath.Join(dir, "persist"))
	if err != nil {
		return nil, err
	}
	add("persist.save.us_p50", "us", median(save), len(save))
	add("persist.restore.us_p50", "us", median(restore), len(restore))

	kernel, err := c.kernelProbe()
	if err != nil {
		return nil, err
	}
	out = append(out, kernel...)

	add("go.gc.cycles", "count", float64(after.NumGC-before.NumGC), 1)
	add("go.gc.pause_ms_total", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6, int(after.NumGC-before.NumGC))
	add("go.heap_inuse_mib_max", "MiB", float64(rs.heapMax)/(1<<20), len(rs.lateMs))

	// Last: the allocation probe pushes more items past the verified state.
	allocs, bytes, err := c.edges[0].allocProbe(c.w.frameItems)
	if err != nil {
		return nil, err
	}
	add("agent.push.allocs_per_frame", "count", allocs, 3)
	add("agent.push.alloc_bytes_per_frame", "B", bytes, 3)
	return out, nil
}

// wireProbe times Encode and DecodePush on the run's last frames, in ns.
func wireProbe(frames []*salsad.Push) (enc, dec []float64, err error) {
	for _, p := range frames {
		start := time.Now()
		b, err := p.Encode()
		if err != nil {
			return nil, nil, err
		}
		mid := time.Now()
		if _, err := salsad.DecodePush(b, 0); err != nil {
			return nil, nil, err
		}
		enc = append(enc, float64(mid.Sub(start).Nanoseconds()))
		dec = append(dec, float64(time.Since(mid).Nanoseconds()))
	}
	return enc, dec, nil
}

// aggProbe times the root's read paths on its final table, times applying
// the run's last frames, and measures how query and apply grow with the
// number of agents.
func (c *cluster) aggProbe(items []uint64, recent []*salsad.Push) ([]metric, error) {
	root := c.root.agg
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, Samples: n})
	}
	const reps = 9
	probe := func(name string, fn func() error) error {
		ns, err := timeIt(reps, fn)
		add(name, "us", ns/1e3, reps)
		return err
	}
	if err := probe("agg.query.us_p50", func() error { _, err := root.Query(items); return err }); err != nil {
		return nil, err
	}
	if err := probe("agg.top.us_p50", func() error { _, err := root.Top(10); return err }); err != nil {
		return nil, err
	}
	if err := probe("agg.snapshot.us_p50", func() error { _, err := root.SnapshotBytes(); return err }); err != nil {
		return nil, err
	}

	// Apply: the run's last agent frames, replayed as one sender into an
	// empty aggregator, so each frame after the first merges into an
	// existing contribution.
	scratch, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: c.spec})
	if err != nil {
		return nil, err
	}
	var applies []float64
	for i, p := range recent {
		q := *p
		q.Agent, q.Gen, q.Seq, q.Flags = "probe", 1, uint64(i+1), 0
		start := time.Now()
		if _, err := scratch.ApplyPush(&q); err != nil {
			return nil, err
		}
		if i > 0 {
			applies = append(applies, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	add("agg.apply.us_p50", "us", median(applies), len(applies))

	st := root.Stats()
	applied, dropped := st.Applied, st.CandidatesDropped
	for _, r := range c.relays {
		st := r.agg.Stats()
		applied += st.Applied
		dropped += st.CandidatesDropped
	}
	add("agg.applied", "count", float64(applied), 1)
	add("agg.candidates_dropped", "count", float64(dropped), 1)

	contrib, err := salsa.Marshal(c.edges[0].agent.Sketch())
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 16, 128, 1024} {
		q, a, err := fanInProbe(c.spec, contrib, n, items)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("agg.query.us.a%d", n), "us", q, 3)
		add(fmt.Sprintf("agg.apply.us.a%d", n), "us", a, 3)
	}
	return out, nil
}

// fanInProbe builds an aggregator holding n agents that each contributed
// contrib, then times a query and a delta apply, in µs.
func fanInProbe(spec salsa.Spec, contrib []byte, n int, items []uint64) (query, apply float64, err error) {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec})
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		if _, err := agg.ApplyPush(&salsad.Push{Agent: fmt.Sprintf("a%04d", i), Gen: 1, Seq: 1, Envelope: contrib}); err != nil {
			return 0, 0, err
		}
	}
	const reps = 3
	q, err := timeIt(reps, func() error { _, err := agg.Query(items); return err })
	if err != nil {
		return 0, 0, err
	}
	seq := uint64(1)
	a, err := timeIt(reps, func() error {
		seq++
		_, err := agg.ApplyPush(&salsad.Push{Agent: "a0000", Gen: 1, Seq: seq, Envelope: contrib})
		return err
	})
	return q / 1e3, a / 1e3, err
}

// relayProbe runs a durable relay over one relay's share of the run's
// agents (all of them when the workload has no relay): each agent's
// contribution arrives, the relay ships a full frame, then five more
// rounds of deltas each followed by a timed PushOnce into an in-process
// root.
func (c *cluster) relayProbe(dir string) ([]metric, error) {
	sink, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: c.spec})
	if err != nil {
		return nil, err
	}
	up := &localUpstream{agg: sink}
	relay, err := salsad.NewRelay(salsad.RelayConfig{
		ID: "probe-relay", Spec: c.spec, Upstream: up, DataDir: dir, Generation: 1, JitterSeed: 1,
	})
	if err != nil {
		return nil, err
	}
	members := c.edges[:len(c.edges)/max(len(c.relays), 1)]
	contribs := make([][]byte, len(members))
	for i, e := range members {
		if contribs[i], err = salsa.Marshal(e.agent.Sketch()); err != nil {
			return nil, err
		}
	}
	var push, cut []float64
	for seq := uint64(1); seq <= 6; seq++ {
		for i, e := range members {
			p := &salsad.Push{Agent: e.id, Gen: 1, Seq: seq, Envelope: contribs[i], Candidates: e.candidates()}
			if _, err := relay.Agg().ApplyPush(p); err != nil {
				return nil, err
			}
		}
		up.spent = 0
		start := time.Now()
		if err := relay.PushOnce(context.Background()); err != nil {
			return nil, err
		}
		total := time.Since(start)
		if seq > 1 {
			push = append(push, float64(total.Nanoseconds())/1e3)
			cut = append(cut, float64((total-up.spent).Nanoseconds())/1e3)
		}
	}
	st := relay.Stats()
	return []metric{
		{Name: "relay.push.us_p50", Unit: "us", Value: median(push), Samples: len(push)},
		{Name: "relay.cut.us_p50", Unit: "us", Value: median(cut), Samples: len(cut)},
		{Name: "relay.frame_bytes", Unit: "B", Value: float64(st.WireBytes) / float64(st.Attempts), Samples: int(st.Attempts)},
	}, nil
}

// localUpstream delivers frames into an aggregator in-process, through the
// same encode, decode and apply steps the HTTP handler runs, and adds up
// the time spent there.
type localUpstream struct {
	agg   *salsad.Aggregator
	spent time.Duration
}

func (u *localUpstream) Push(_ context.Context, p *salsad.Push) (*salsad.Ack, error) {
	start := time.Now()
	defer func() { u.spent += time.Since(start) }()
	enc, err := p.Encode()
	if err != nil {
		return nil, err
	}
	q, err := salsad.DecodePush(enc, u.agg.MaxEnvelopeBytes())
	if err != nil {
		return nil, err
	}
	return u.agg.ApplyPush(q)
}

func (u *localUpstream) Resume(_ context.Context, agent string) (*salsad.ResumeInfo, error) {
	info := u.agg.Resume(agent)
	return &info, nil
}

// kernelProbe times the sketch kernels every tier is built from, on the
// root's merged sketch and the first agent's contribution, in µs.
func (c *cluster) kernelProbe() ([]metric, error) {
	root, err := c.root.agg.Snapshot()
	if err != nil {
		return nil, err
	}
	contrib := c.edges[0].agent.Sketch()
	env, err := salsa.Marshal(root)
	if err != nil {
		return nil, err
	}
	frame := &salsad.Push{Agent: "kernel", Gen: 1, Seq: 1, Envelope: env}
	// Each kernel gets a fresh copy of the root, made outside the timing;
	// the ones that only read ignore it.
	kernels := []struct {
		name string
		run  func(dst salsa.Sketch) error
	}{
		{"kernel.merge.us", func(dst salsa.Sketch) error { return salsa.MergeInto(dst, contrib) }},
		{"kernel.subtract.us", func(dst salsa.Sketch) error { return salsa.SubtractInto(dst, contrib) }},
		{"kernel.clone.us", func(salsa.Sketch) error { _, err := salsa.CloneSketch(root); return err }},
		{"kernel.marshal.us", func(salsa.Sketch) error { _, err := salsa.Marshal(root); return err }},
		{"kernel.unmarshal.us", func(salsa.Sketch) error { _, err := salsa.Unmarshal(env); return err }},
		{"kernel.flate.us", func(salsa.Sketch) error { _, err := frame.Encode(); return err }},
	}
	const reps = 5
	var out []metric
	for _, k := range kernels {
		ds := make([]float64, 0, reps)
		for i := 0; i < reps; i++ {
			dst, err := salsa.CloneSketch(root)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if err := k.run(dst); err != nil {
				return nil, err
			}
			ds = append(ds, float64(time.Since(start).Nanoseconds())/1e3)
		}
		out = append(out, metric{Name: k.name, Unit: "us", Value: median(ds), Samples: reps})
	}
	return out, nil
}

// allocProbe measures what one PushOnce allocates on the agent's side:
// the transport acks without sending, and nothing else runs meanwhile.
func (e *edge) allocProbe(frameItems int) (allocs, bytes float64, err error) {
	e.wire.sink = true
	defer func() { e.wire.sink = false }()
	var na, nb []float64
	for i := 0; i < 3; i++ {
		e.feed(frameItems, nil)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := e.agent.PushOnce(context.Background()); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m1)
		na = append(na, float64(m1.Mallocs-m0.Mallocs))
		nb = append(nb, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	return median(na), median(nb), nil
}

// accuracy returns the paper's NRMSE of the root's estimates over every
// item, (1/N)·√(Σ f·(f̂−f)²/N), and the share of the true top 10 that the
// root's Top(10) returns.
func (c *cluster) accuracy(exact map[uint64]int64) (nrmse, recall float64, err error) {
	snap, err := c.root.agg.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	cm := snap.(*salsa.CountMin)
	var n, sum float64
	type kv struct {
		item  uint64
		count int64
	}
	all := make([]kv, 0, len(exact))
	for x, f := range exact {
		d := float64(cm.Query(x)) - float64(f)
		sum += float64(f) * d * d
		n += float64(f)
		all = append(all, kv{x, f})
	}
	nrmse = math.Sqrt(sum/n) / n
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].item < all[j].item
	})
	truth := make(map[uint64]bool, 10)
	for _, e := range all[:min(10, len(all))] {
		truth[e.item] = true
	}
	top, err := c.root.agg.Top(10)
	if err != nil {
		return 0, 0, err
	}
	hits := 0
	for _, t := range top {
		if truth[t.Item] {
			hits++
		}
	}
	return nrmse, float64(hits) / float64(len(truth)), nil
}

// persistProbe stores the root's table as a snapshot under dir and times,
// persistReps times each, a restore (NewAggregator on that directory) and
// a Persist with fsync of the restored table, in µs.
func persistProbe(spec salsa.Spec, root *salsad.Aggregator, dir string) (restore, save []float64, err error) {
	state, err := root.MarshalState()
	if err != nil {
		return nil, nil, err
	}
	store, err := salsad.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	if _, err := store.Save(state); err != nil {
		return nil, nil, err
	}
	var agg *salsad.Aggregator
	for i := 0; i < persistReps; i++ {
		// A restarted node is a fresh process with a small heap: collect
		// before each restore, outside the timing, so this process's heap,
		// which still holds the whole run, does not collect during it.
		runtime.GC()
		start := time.Now()
		if agg, err = salsad.NewAggregator(salsad.AggregatorConfig{Spec: spec, DataDir: dir}); err != nil {
			return nil, nil, err
		}
		if err := agg.RestoreError(); err != nil {
			return nil, nil, err
		}
		restore = append(restore, float64(time.Since(start).Nanoseconds())/1e3)
	}
	for i := 0; i < persistReps; i++ {
		start := time.Now()
		if _, err := agg.Persist(); err != nil {
			return nil, nil, err
		}
		save = append(save, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return restore, save, nil
}
