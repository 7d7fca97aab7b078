// Command salsad runs one node of the distributed aggregation tier: an
// aggregator that accepts delta pushes from edge agents and serves
// cluster-wide queries, an agent that sketches a local stream and ships
// deltas upstream with retries, idempotent sequencing, and automatic
// resync, or a relay that does both — aggregating a subtree downstream
// and pushing its merged table up to the next tier.
//
// Usage:
//
//	salsad -mode aggregator -listen 127.0.0.1:7777 -spec cms -datadir /var/lib/salsad
//	salsad -mode relay -listen 127.0.0.1:7778 -addr http://127.0.0.1:7777 -id relay-eu
//	salsad -mode agent -addr http://127.0.0.1:7778 -id edge-fra -dataset NY18 -n 1000000
//	cut -d' ' -f1 access.log | salsad -mode agent -addr http://127.0.0.1:7778 -id edge-fra
//
// All tiers must be built with the same -spec, -width, and -seed: the
// aggregator rejects incompatible envelopes. Server roles run until
// stdin closes or SIGTERM/SIGINT arrives; shutdown is graceful — an
// agent attempts one final push under a deadline, and a durable
// aggregator/relay persists a final snapshot, so a redeploy loses
// nothing.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"salsa"
	"salsa/internal/salsad"
	"salsa/internal/stream"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "salsad:", err)
		os.Exit(1)
	}
}

// run executes one salsad invocation against the given stdin/stdout;
// main is only the signal/exit-code shim so tests can drive the tool
// in-process and cancel ctx to simulate SIGTERM.
func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("salsad", flag.ContinueOnError)
	var (
		mode  = fs.String("mode", "", "role: aggregator, relay, or agent")
		spec  = fs.String("spec", "cms", "topology expression (salsa.ParseSpec; agents may wrap in epoch(...))")
		width = fs.Int("width", 1<<14, "sketch row width (power of two)")
		seed  = fs.Uint64("seed", 1, "shared hash seed; must match across the cluster")

		// Aggregator/relay flags.
		listen       = fs.String("listen", "127.0.0.1:0", "aggregator/relay listen address")
		leaseTTL     = fs.Duration("lease", salsad.DefaultLeaseTTL, "agent liveness lease")
		maxEnvelope  = fs.Int("maxenvelope", salsad.DefaultMaxEnvelopeBytes, "max decoded envelope bytes per push")
		dataDir      = fs.String("datadir", "", "snapshot directory; empty disables durability")
		persistEvery = fs.Int("persistevery", salsad.DefaultSnapshotEvery, "persist after this many applied frames (needs -datadir)")

		// Agent/relay upstream flags.
		addr         = fs.String("addr", "", "upstream aggregator base URL (agent and relay modes)")
		id           = fs.String("id", "", "agent/relay id (defaults to the hostname)")
		dataset      = fs.String("dataset", "", "generate this trace stand-in instead of reading stdin; a rerun under the same -id skips the items the aggregator already holds (stdin is read as the stream that follows them)")
		n            = fs.Int("n", 1_000_000, "generated stream length")
		pushEvery    = fs.Int("pushevery", 100_000, "push a delta frame every this many items (agent mode)")
		pushInterval = fs.Duration("pushinterval", 2*time.Second, "upstream push cadence (relay mode)")
		attempts     = fs.Int("attempts", 4, "delivery attempts per push before giving up the round")
		timeout      = fs.Duration("timeout", 10*time.Second, "per-push deadline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		// The FlagSet has already reported the problem on stderr.
		return errors.New("invalid arguments")
	}

	opt := salsa.Options{Width: *width, Merge: salsa.MergeSum, Seed: *seed}
	topo, err := salsa.ParseSpec(*spec, opt)
	if err != nil {
		return err
	}

	switch *mode {
	case "aggregator":
		return runAggregator(ctx, aggParams{
			topo: topo, listen: *listen, lease: *leaseTTL, maxEnv: *maxEnvelope,
			dataDir: *dataDir, persistEvery: *persistEvery,
		}, stdin, stdout)
	case "relay":
		return runRelay(ctx, relayParams{
			topo: topo, listen: *listen, lease: *leaseTTL, maxEnv: *maxEnvelope,
			dataDir: *dataDir, persistEvery: *persistEvery,
			addr: *addr, id: *id, pushInterval: *pushInterval,
			attempts: *attempts, timeout: *timeout,
		}, stdin, stdout)
	case "agent":
		return runAgent(ctx, agentParams{
			topo: topo, addr: *addr, id: *id,
			dataset: *dataset, n: *n, seed: *seed,
			pushEvery: *pushEvery, attempts: *attempts, timeout: *timeout,
		}, stdin, stdout)
	default:
		return fmt.Errorf("unknown -mode %q (want aggregator, relay, or agent)", *mode)
	}
}

// nodeID defaults an empty id to the (truncated) hostname.
func nodeID(id string) (string, error) {
	if id != "" {
		return id, nil
	}
	host, err := os.Hostname()
	if err != nil || host == "" {
		return "", errors.New("needs -id (hostname unavailable)")
	}
	if len(host) > salsad.MaxAgentIDLen {
		host = host[:salsad.MaxAgentIDLen]
	}
	return host, nil
}

// serveUntilDone runs srv on ln until ctx is cancelled, stdin closes, or
// the listener fails, then drains in-flight requests.
func serveUntilDone(ctx context.Context, srv *http.Server, ln net.Listener, stdin io.Reader) error {
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stdin) //nolint:errcheck // EOF is the signal
		close(eof)
	}()
	select {
	case <-ctx.Done():
	case <-eof:
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(sctx) //nolint:errcheck // best-effort drain
	return nil
}

type aggParams struct {
	topo         salsa.Spec
	listen       string
	lease        time.Duration
	maxEnv       int
	dataDir      string
	persistEvery int
}

// runAggregator serves the cluster-wide query surface until shutdown,
// then persists a final snapshot (when durable).
func runAggregator(ctx context.Context, p aggParams, stdin io.Reader, stdout io.Writer) error {
	agg, err := salsad.NewAggregator(salsad.AggregatorConfig{
		Spec:             p.topo,
		LeaseTTL:         p.lease,
		MaxEnvelopeBytes: p.maxEnv,
		DataDir:          p.dataDir,
		SnapshotEvery:    p.persistEvery,
	})
	if err != nil {
		return err
	}
	if err := agg.RestoreError(); err != nil {
		fmt.Fprintf(stdout, "snapshot restore rejected (starting empty, agents will resync): %v\n", err)
	}
	ln, err := net.Listen("tcp", p.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "aggregator listening on http://%s\n", ln.Addr())

	if err := serveUntilDone(ctx, &http.Server{Handler: salsad.Handler(agg)}, ln, stdin); err != nil {
		return err
	}
	if p.dataDir != "" {
		if epoch, err := agg.Persist(); err != nil {
			fmt.Fprintf(stdout, "final snapshot failed: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "final snapshot persisted (epoch %d)\n", epoch)
		}
	}
	st := agg.Stats()
	fmt.Fprintf(stdout, "shutting down: %d frames applied, %d duplicates, %d resyncs, %d heartbeats\n",
		st.Applied, st.Duplicates, st.Resyncs, st.Heartbeats)
	return nil
}

type relayParams struct {
	topo         salsa.Spec
	listen       string
	lease        time.Duration
	maxEnv       int
	dataDir      string
	persistEvery int
	addr         string
	id           string
	pushInterval time.Duration
	attempts     int
	timeout      time.Duration
}

// runRelay serves a downstream aggregator surface while pushing the
// merged table upstream on a cadence; shutdown attempts one final
// upstream push and persists a final snapshot (when durable).
func runRelay(ctx context.Context, p relayParams, stdin io.Reader, stdout io.Writer) error {
	if p.addr == "" {
		return errors.New("relay mode needs -addr")
	}
	id, err := nodeID(p.id)
	if err != nil {
		return fmt.Errorf("relay mode %w", err)
	}
	if p.pushInterval <= 0 {
		p.pushInterval = 2 * time.Second
	}
	relay, err := salsad.NewRelay(salsad.RelayConfig{
		ID:               id,
		Spec:             p.topo,
		Upstream:         &salsad.HTTPTransport{Base: p.addr, Client: &http.Client{Timeout: p.timeout}},
		DataDir:          p.dataDir,
		SnapshotEvery:    p.persistEvery,
		LeaseTTL:         p.lease,
		MaxEnvelopeBytes: p.maxEnv,
		MaxAttempts:      p.attempts,
	})
	if err != nil {
		return err
	}
	if err := relay.RestoreError(); err != nil {
		fmt.Fprintf(stdout, "snapshot restore rejected (rejoining via resync): %v\n", err)
	}
	ln, err := net.Listen("tcp", p.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(stdout, "relay %s listening on http://%s, pushing to %s\n", id, ln.Addr(), p.addr)

	// Upstream loop: push the merged-table delta every interval until
	// shutdown. Failed rounds leave the frozen frame for the next tick.
	loopDone := make(chan struct{})
	loopCtx, stopLoop := context.WithCancel(context.Background())
	go func() {
		defer close(loopDone)
		tick := time.NewTicker(p.pushInterval)
		defer tick.Stop()
		for {
			select {
			case <-loopCtx.Done():
				return
			case <-tick.C:
				pctx, cancel := context.WithTimeout(loopCtx, p.timeout)
				if err := relay.PushOnce(pctx); err != nil && loopCtx.Err() == nil {
					fmt.Fprintf(stdout, "upstream push failed (will retry): %v\n", err)
				}
				cancel()
			}
		}
	}()

	srvErr := serveUntilDone(ctx, &http.Server{Handler: salsad.Handler(relay.Agg())}, ln, stdin)
	stopLoop()
	<-loopDone
	if srvErr != nil {
		return srvErr
	}

	// Graceful exit: ship what the table holds, then persist it.
	fctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	if err := relay.PushOnce(fctx); err != nil {
		fmt.Fprintf(stdout, "final upstream push failed: %v\n", err)
	}
	cancel()
	if p.dataDir != "" {
		if epoch, err := relay.Persist(); err != nil {
			fmt.Fprintf(stdout, "final snapshot failed: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "final snapshot persisted (epoch %d)\n", epoch)
		}
	}
	st, up := relay.Agg().Stats(), relay.Stats()
	fmt.Fprintf(stdout, "relay %s gen %d shutting down: %d frames applied downstream, %d shipped upstream (%d retries, %d resyncs)\n",
		id, relay.Gen(), st.Applied, up.FramesAcked, up.Retries, up.Resyncs)
	return nil
}

type agentParams struct {
	topo      salsa.Spec
	addr, id  string
	dataset   string
	n         int
	seed      uint64
	pushEvery int
	attempts  int
	timeout   time.Duration
}

// runAgent sketches stdin (or a generated trace) and ships deltas until
// the stream ends or ctx is cancelled (SIGTERM/SIGINT), then cuts the
// epoch layer and flushes a final frame under a deadline.
func runAgent(ctx context.Context, p agentParams, stdin io.Reader, stdout io.Writer) error {
	if p.addr == "" {
		return errors.New("agent mode needs -addr")
	}
	id, err := nodeID(p.id)
	if err != nil {
		return fmt.Errorf("agent mode %w", err)
	}
	p.id = id
	if p.pushEvery <= 0 {
		p.pushEvery = 100_000
	}
	ds, ok := stream.ByName(p.dataset)
	if p.dataset != "" && !ok {
		return fmt.Errorf("unknown dataset %q", p.dataset)
	}
	transport := &salsad.HTTPTransport{Base: p.addr, Client: &http.Client{Timeout: p.timeout}}

	// Rejoin-aware start: ask the aggregator where this id left off, so a
	// restarted agent picks a fresh generation instead of a burned one.
	// Without an answer there is no safe generation to guess: a reused one
	// would have every frame dropped as a duplicate. The call runs under
	// its own deadline, like the final flush, so an interrupted agent still
	// starts and exits cleanly.
	rctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	gen, cursor, err := salsad.Resume(rctx, transport, p.id)
	cancel()
	if err != nil {
		return fmt.Errorf("agent %s: resume failed, not starting at a guessed generation: %w", p.id, err)
	}

	// A small local heavy-hitter monitor supplies candidate items with
	// each frame; the aggregator evaluates its pooled candidates against
	// the cluster-wide merged sketch to answer /v1/top.
	monitor := salsa.MustBuild(salsa.MonitorOf(salsa.Options{
		Width: 1 << 10, Seed: p.seed,
	}, 64)).(interface {
		Process(uint64)
		Top() []salsa.ItemCount
	})

	ag, err := salsad.NewAgent(salsad.AgentConfig{
		ID:          p.id,
		Spec:        p.topo,
		Transport:   transport,
		Generation:  gen,
		StartCursor: cursor,
		MaxAttempts: p.attempts,
		Candidates: func() []uint64 {
			top := monitor.Top()
			items := make([]uint64, len(top))
			for i, e := range top {
				items[i] = e.Item
			}
			return items
		},
	})
	if err != nil {
		return err
	}

	push := func(ctx context.Context) error {
		pctx, cancel := context.WithTimeout(ctx, p.timeout)
		defer cancel()
		return ag.PushOnce(pctx)
	}
	var sinceLast int
	interrupted := errors.New("interrupted")
	ingest := func(item uint64) error {
		if ctx.Err() != nil {
			return interrupted
		}
		ag.Ingest(item)
		monitor.Process(item)
		if sinceLast++; sinceLast >= p.pushEvery {
			sinceLast = 0
			if err := push(ctx); err != nil {
				// A failed round leaves the frame frozen; the next round
				// retries it byte-identically. Keep ingesting.
				fmt.Fprintf(stdout, "push failed (will retry): %v\n", err)
			}
		}
		return nil
	}

	if p.dataset != "" {
		// The aggregator already holds the trace up to the resume cursor.
		trace := ds.Generate(p.n, p.seed)
		for _, x := range trace[min(cursor, uint64(len(trace))):] {
			if err := ingest(x); err != nil && !errors.Is(err, interrupted) {
				return err
			} else if err != nil {
				break
			}
		}
	} else {
		sc := bufio.NewScanner(stdin)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			if err := ingest(salsa.KeyBytes(sc.Bytes())); err != nil {
				if errors.Is(err, interrupted) {
					break
				}
				return err
			}
		}
		if err := sc.Err(); err != nil && ctx.Err() == nil {
			return err
		}
	}

	// Final flush: everything ingested must be acknowledged before exit.
	// Runs under its own deadline (detached from ctx) so a SIGTERM still
	// gets its state out — that is the point of graceful shutdown.
	fctx, fcancel := context.WithTimeout(context.Background(), 3*p.timeout)
	defer fcancel()
	for tries := 0; !ag.Synced(); tries++ {
		if err := push(fctx); err != nil {
			if tries >= 2 || fctx.Err() != nil {
				return err
			}
			fmt.Fprintf(stdout, "final push failed (retrying): %v\n", err)
		}
	}
	st := ag.Stats()
	fmt.Fprintf(stdout, "agent %s gen %d: %d items in %d frames (%d retries, %d resyncs), %d wire bytes\n",
		p.id, ag.Gen(), ag.Frontier()-cursor, st.FramesAcked, st.Retries, st.Resyncs, st.WireBytes)
	return nil
}
