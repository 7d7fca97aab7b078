package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"salsa"
	"salsa/internal/salsad"
)

// edge is one agent as `salsad -mode agent` runs it: the agent, its
// candidate monitor, and a cyclic source it reads from position pos on.
type edge struct {
	id    string
	agent *salsad.Agent
	mon   *salsa.Monitor
	trace []uint64
	pos   int
	wire  *wireTransport
}

// node is one HTTP-served aggregator: the root, or a relay's downstream
// half.
type node struct {
	agg   *salsad.Aggregator
	relay *salsad.Relay // nil for the root
	url   string
	srv   *http.Server
	done  chan struct{}
	// pending holds the PushOnce start of every member frame this relay
	// has not shipped upstream yet.
	pending []time.Time
}

// cluster is a running salsad tree driven from this process.
type cluster struct {
	w      workload
	tr     *tracer
	spec   salsa.Spec
	base   *http.Transport
	client *http.Client
	root   *node
	relays []*node
	edges  []*edge
}

func coreSpec() salsa.Spec {
	return salsa.CountMinOf(salsa.Options{Width: sketchWidth, Merge: salsa.MergeSum, Seed: hashSeed})
}

// newCluster starts the root, the relays and the agents of w, serving
// over loopback HTTP, and runs the prefill. Durable nodes keep their
// snapshots under dir.
func newCluster(w workload, tr *tracer, traces [][]uint64, dir string) (c *cluster, err error) {
	base := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	c = &cluster{
		w: w, tr: tr, spec: coreSpec(), base: base,
		client: &http.Client{Transport: headerTransport{base}, Timeout: 30 * time.Second},
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	dataDir := func(name string) string {
		if !w.durable {
			return ""
		}
		return filepath.Join(dir, name)
	}
	root, err := salsad.NewAggregator(salsad.AggregatorConfig{Spec: c.spec, DataDir: dataDir("root")})
	if err != nil {
		return nil, err
	}
	if c.root, err = c.serve(root); err != nil {
		return nil, err
	}
	for i := 0; i < w.relays; i++ {
		id := fmt.Sprintf("relay-%02d", i)
		relay, err := salsad.NewRelay(salsad.RelayConfig{
			ID: id, Spec: c.spec, Upstream: c.transport(c.root.url), DataDir: dataDir(id), JitterSeed: uint64(i + 1),
		})
		if err != nil {
			return nil, err
		}
		n, err := c.serve(relay.Agg())
		if err != nil {
			return nil, err
		}
		n.relay = relay
		c.relays = append(c.relays, n)
	}
	for i := 0; i < w.agents; i++ {
		e := &edge{
			id:    fmt.Sprintf("edge-%02d", i),
			mon:   salsa.MustBuild(salsa.MonitorOf(salsa.Options{Width: monitorWidth, Seed: hashSeed}, monitorK)).(*salsa.Monitor),
			trace: traces[i],
			wire:  c.transport(c.upstreamOf(i).url),
		}
		e.agent, err = salsad.NewAgent(salsad.AgentConfig{
			ID: e.id, Spec: c.spec, Transport: e.wire, JitterSeed: uint64(1000 + i),
			Candidates: e.candidates,
		})
		if err != nil {
			return nil, err
		}
		c.edges = append(c.edges, e)
	}
	ctx := context.Background()
	for _, e := range c.edges {
		e.feed(w.prefill, nil)
		if err := e.agent.PushOnce(ctx); err != nil {
			return nil, fmt.Errorf("prefill push: %w", err)
		}
	}
	for _, r := range c.relays {
		if err := r.relay.PushOnce(ctx); err != nil {
			return nil, fmt.Errorf("prefill relay push: %w", err)
		}
	}
	return c, nil
}

// upstreamOf returns the node agent i pushes to.
func (c *cluster) upstreamOf(i int) *node {
	if len(c.relays) == 0 {
		return c.root
	}
	return c.relays[i*len(c.relays)/c.w.agents]
}

func (c *cluster) transport(url string) *wireTransport {
	return &wireTransport{inner: &salsad.HTTPTransport{Base: url, Client: c.client}, tr: c.tr}
}

// serve exposes agg on a loopback port.
func (c *cluster) serve(agg *salsad.Aggregator) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		agg:  agg,
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: serverSpans(c.tr, salsad.Handler(agg))},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return n, nil
}

// close stops every server and waits for it to exit.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range append([]*node{c.root}, c.relays...) {
		if n == nil {
			continue
		}
		n.srv.Shutdown(ctx) //nolint:errcheck // best-effort drain
		<-n.done
	}
	c.base.CloseIdleConnections()
}

func (e *edge) candidates() []uint64 {
	top := e.mon.Top()
	items := make([]uint64, len(top))
	for i, t := range top {
		items[i] = t.Item
	}
	return items
}

// feed ingests the next n items of the edge's cyclic source into the agent
// and then into its monitor, one span each.
func (e *edge) feed(n int, tr *tracer) {
	var chunks [][]uint64
	for pos, left := e.pos%len(e.trace), n; left > 0; pos = 0 {
		k := min(left, len(e.trace)-pos)
		chunks = append(chunks, e.trace[pos:pos+k])
		left -= k
	}
	sp := tr.begin("sketch.ingest", e.id, -1)
	for _, ch := range chunks {
		for _, x := range ch {
			e.agent.Ingest(x)
		}
	}
	tr.end(sp, n)
	sp = tr.begin("sketch.monitor", e.id, -1)
	for _, ch := range chunks {
		for _, x := range ch {
			e.mon.Process(x)
		}
	}
	tr.end(sp, n)
	e.pos += n
}

// wireTransport wraps the HTTP transport of one sender: it names the
// frame's spans, times the client side of each push, counts data frames
// and keeps the last few for the wire probe. In sink mode it acks without
// sending, so the agent's own cost can be measured alone.
type wireTransport struct {
	inner    *salsad.HTTPTransport
	tr       *tracer
	sink     bool
	frames   int64
	envBytes int64
	recent   []*salsad.Push
}

const keepFrames = 16

func (t *wireTransport) Push(ctx context.Context, p *salsad.Push) (*salsad.Ack, error) {
	parent := spanOf(ctx)
	id := fmt.Sprintf("%s/%d/%d", p.Agent, p.Gen, p.Seq)
	t.tr.setID(parent, id)
	if t.sink {
		return &salsad.Ack{Status: salsad.StatusApplied, Gen: p.Gen, Seq: p.Seq, Cursor: p.Cursor}, nil
	}
	if !p.Heartbeat() {
		t.frames++
		t.envBytes += int64(len(p.Envelope))
		if len(t.recent) == keepFrames {
			t.recent = t.recent[1:]
		}
		t.recent = append(t.recent, p)
	}
	sp := t.tr.begin("http.push.client", id, parent)
	defer t.tr.end(sp, 0)
	return t.inner.Push(withSpan(ctx, sp), p)
}

func (t *wireTransport) Resume(ctx context.Context, agent string) (*salsad.ResumeInfo, error) {
	return t.inner.Resume(ctx, agent)
}

// pushAgent runs one traced PushOnce and returns when it started and
// ended.
func (c *cluster) pushAgent(ctx context.Context, e *edge) (start, end time.Time, err error) {
	sp := c.tr.begin("agent.push", "", -1)
	start = time.Now()
	err = e.agent.PushOnce(withSpan(ctx, sp))
	end = time.Now()
	c.tr.end(sp, 0)
	return start, end, err
}

func (c *cluster) pushRelay(ctx context.Context, r *node) (end time.Time, err error) {
	sp := c.tr.begin("relay.push", "", -1)
	err = r.relay.PushOnce(withSpan(ctx, sp))
	end = time.Now()
	c.tr.end(sp, 0)
	return end, err
}

// quiesce pushes until every agent and relay has everything acknowledged.
func (c *cluster) quiesce(ctx context.Context) error {
	const maxTries = 8
	for _, e := range c.edges {
		for try := 0; !e.agent.Synced(); try++ {
			if try == maxTries {
				return fmt.Errorf("%s did not sync", e.id)
			}
			e.agent.PushOnce(ctx) //nolint:errcheck // retried until synced
		}
	}
	for _, r := range c.relays {
		for try := 0; !r.relay.Synced(); try++ {
			if try == maxTries {
				return errors.New("relay did not sync")
			}
			r.relay.PushOnce(ctx) //nolint:errcheck // retried until synced
		}
	}
	return nil
}

// exact returns the multiset the agents have consumed: each source read
// pos items from its start, wrapping around.
func (c *cluster) exact() map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, e := range c.edges {
		passes, rem := e.pos/len(e.trace), e.pos%len(e.trace)
		for j, x := range e.trace {
			n := passes
			if j < rem {
				n++
			}
			if n > 0 {
				out[x] += int64(n)
			}
		}
	}
	return out
}
