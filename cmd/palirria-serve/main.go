// palirria-serve is a long-lived serving daemon over persistent
// work-stealing pools: the paper's motivating scenario (an on-line server
// whose parallelism follows incoming load) as a runnable process.
//
// Each tenant is one serve.Pool keeping a resident runtime; jobs are
// synthetic fork/join fans submitted over HTTP and executed synchronously.
// With more than one tenant the pools share a machine model through
// serve.Tenancy, and a re-arbitration loop redistributes worker shares by
// live desire. The endpoints are internal/serve/httpapi's (its package doc
// lists them); after a successful POST /drain the process exits 0.
//
// With -cluster-addr the daemon joins a gossip cluster: it periodically
// exchanges a signed state record (desire, allotment, spare parallelism,
// queue depth, admit p99, shed state) with its peers, publishes
// peer-up/peer-suspect/peer-dead lifecycle events on the stream hub, and
// serves the merged membership view at /cluster. A palirria-router in
// front of the cluster steers submissions toward the node advertising the
// most spare parallelism; see docs/CLUSTER.md.
//
// The -sink flag (jsonl:- for stdout, jsonl:/path to append to a file)
// writes the full event stream as JSON lines; the log is one more
// subscriber with the same -event-buffer bound and drop accounting as an
// /events client.
//
// Usage:
//
//	palirria-serve -listen :8077 -mesh 4x4 -quantum 2ms
//	palirria-serve -tenants web,batch -machine 8x4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/serve/httpapi"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

func main() {
	var opts options
	flag.StringVar(&opts.listen, "listen", ":8077", "HTTP listen address")
	flag.StringVar(&opts.mesh, "mesh", "4x4", "per-pool worker mesh, e.g. 4x4 or 8x4")
	flag.StringVar(&opts.tenants, "tenants", "default", "comma-separated pool names; more than one enables multi-tenant arbitration")
	flag.StringVar(&opts.machine, "machine", "8x4", "arbitration mesh for multi-tenant mode")
	flag.DurationVar(&opts.quantum, "quantum", 2*time.Millisecond, "estimation quantum")
	flag.DurationVar(&opts.rearbitrate, "rearbitrate", 20*time.Millisecond, "re-arbitration period (multi-tenant mode)")
	flag.IntVar(&opts.queueCap, "queue-cap", 128, "admission queue capacity per pool")
	flag.IntVar(&opts.shedQuanta, "shed-quanta", 8, "pinned quanta before the shed latch arms")
	flag.StringVar(&opts.sink, "sink", "", "write the event stream as JSON lines: jsonl:- (stdout) or jsonl:/path (append)")
	flag.IntVar(&opts.eventBuf, "event-buffer", 1024, "per-subscriber /events buffer (events beyond it are dropped and counted)")
	flag.DurationVar(&opts.heartbeat, "heartbeat", 10*time.Second, "/events comment-heartbeat period")
	flag.StringVar(&opts.clusterAddr, "cluster-addr", "", "advertised base URL (e.g. http://10.0.0.5:8077); enables cluster gossip")
	flag.StringVar(&opts.clusterJoin, "cluster-join", "", "comma-separated seed base URLs of existing cluster members")
	flag.StringVar(&opts.clusterSecret, "cluster-secret", "", "shared HMAC secret signing gossip records (empty: unsigned)")
	flag.DurationVar(&opts.gossipEvery, "gossip", 500*time.Millisecond, "gossip exchange period (cluster mode)")
	flag.DurationVar(&opts.suspectAfter, "suspect-after", 0, "silence before a peer is suspected (default 4x gossip period)")
	flag.DurationVar(&opts.deadAfter, "dead-after", 0, "silence before a suspected peer is confirmed dead (default 10x gossip period)")
	flag.Parse()

	s, err := newServer(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "palirria-serve:", err)
		os.Exit(1)
	}
	lis, err := net.Listen("tcp", opts.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "palirria-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("palirria-serve: listening on %s (%d tenant(s), mesh %s)\n",
		lis.Addr(), len(s.cfg.Pools), opts.mesh)

	// The process lives until a successful POST /drain, then exits cleanly
	// — every admitted job has completed and every allotment is released.
	s.serveUntilDrained(lis)
	s.close()
	fmt.Println("palirria-serve: drained, exiting")
}

// serveUntilDrained serves on lis until a successful POST /drain, then
// stops the HTTP server. Shutdown lets the /drain reply itself reach the
// client whole — the handler signals drained before it returns, and a
// plain Close at that point cut about one reply in ten off as EOF. It is
// bounded because /events streams never go idle; Close then drops those.
func (s *server) serveUntilDrained(lis net.Listener) {
	srv := &http.Server{Handler: s.api.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(lis) //nolint:errcheck // returns ErrServerClosed on Shutdown
	<-s.api.Drained()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck // a timeout only means streams lingered; Close ends them
	srv.Close()
}

type options struct {
	listen      string
	mesh        string
	tenants     string
	machine     string
	quantum     time.Duration
	rearbitrate time.Duration
	queueCap    int
	shedQuanta  int
	sink        string
	eventBuf    int
	heartbeat   time.Duration

	clusterAddr   string
	clusterJoin   string
	clusterSecret string
	gossipEvery   time.Duration
	suspectAfter  time.Duration
	deadAfter     time.Duration
}

// server builds what the node's handlers serve — the pools, the optional
// tenancy and gossip member, the shared hub and registry — plus the -sink
// event log, and releases them in close. It is separated from main so
// tests can drive the daemon without a process.
type server struct {
	cfg     httpapi.Config
	api     *httpapi.Server
	logDone chan error // the -sink event log's result; nil without -sink
	logFile *os.File   // the -sink file; nil for stdout
}

func newServer(opts options) (*server, error) {
	dims, err := topo.ParseMesh(opts.mesh)
	if err != nil {
		return nil, err
	}
	names := splitTenants(opts.tenants)
	if len(names) == 0 {
		return nil, errors.New("no tenants configured")
	}
	if opts.eventBuf <= 0 {
		opts.eventBuf = 1024
	}
	s := &server{cfg: httpapi.Config{
		Hub:       stream.NewHub(),
		Metrics:   obs.NewRegistry(),
		EventBuf:  opts.eventBuf,
		Heartbeat: opts.heartbeat,
	}}
	s.cfg.Hub.Register(s.cfg.Metrics)
	if opts.sink != "" {
		if err := s.startEventLog(opts.sink); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		mesh, err := topo.NewMesh(dims...)
		if err != nil {
			return nil, err
		}
		p, err := serve.New(serve.Config{
			Name: name,
			Runtime: wsrt.Config{
				Mesh:    mesh,
				Quantum: opts.quantum,
				Metrics: s.cfg.Metrics,
			},
			QueueCap:   opts.queueCap,
			ShedQuanta: opts.shedQuanta,
			Metrics:    s.cfg.Metrics,
			Events:     s.cfg.Hub,
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pool %q: %w", name, err)
		}
		s.cfg.Pools = append(s.cfg.Pools, p)
	}
	if len(names) > 1 {
		mdims, err := topo.ParseMesh(opts.machine)
		if err != nil {
			s.close()
			return nil, err
		}
		machine, err := topo.NewMesh(mdims...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.cfg.Tenancy = serve.NewTenancy(machine, opts.rearbitrate)
		// Spread the tenants' source cores across the machine so their
		// seed zones do not collide.
		usable := machine.Usable()
		for i, p := range s.cfg.Pools {
			src := topo.CoreID(i * usable / len(names))
			if err := s.cfg.Tenancy.Attach(p, src); err != nil {
				s.close()
				return nil, fmt.Errorf("attach %q: %w", p.Name(), err)
			}
		}
		s.cfg.Tenancy.Start()
	}
	if opts.clusterAddr != "" {
		node, err := cluster.NewNode(cluster.Config{
			Addr:         opts.clusterAddr,
			Role:         cluster.RoleServe,
			Secret:       opts.clusterSecret,
			Snapshot:     func() cluster.Record { return httpapi.Record(s.cfg.Pools...) },
			Join:         splitTenants(opts.clusterJoin),
			Interval:     opts.gossipEvery,
			SuspectAfter: opts.suspectAfter,
			DeadAfter:    opts.deadAfter,
			Events:       s.cfg.Hub,
			Metrics:      s.cfg.Metrics,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.cfg.Node = node
		node.Start()
	}
	s.api = httpapi.New(s.cfg)
	return s, nil
}

// startEventLog subscribes the -sink event log to the hub: spec is
// jsonl:- for stdout or jsonl:PATH for a file opened for append.
func (s *server) startEventLog(spec string) error {
	path, ok := strings.CutPrefix(spec, "jsonl:")
	if !ok {
		return fmt.Errorf("bad -sink %q: want jsonl:- or jsonl:PATH", spec)
	}
	out := os.Stdout
	if path != "-" && path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		out, s.logFile = f, f
	}
	sub := s.cfg.Hub.Subscribe(stream.SubOptions{Buf: s.cfg.EventBuf})
	s.logDone = make(chan error, 1)
	go func() { s.logDone <- stream.WriteJSONL(sub, out) }()
	return nil
}

// close releases whatever newServer built; pools that never drained are
// drained with a short grace period. The hub closes after the drains, and
// the event log is waited for before its file closes, so every terminal
// event reaches the log.
func (s *server) close() {
	if s.cfg.Node != nil {
		s.cfg.Node.Stop()
	}
	if s.cfg.Tenancy != nil {
		s.cfg.Tenancy.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, p := range s.cfg.Pools {
		p.Drain(ctx) //nolint:errcheck // best-effort teardown
	}
	s.cfg.Hub.Close()
	if s.logDone != nil {
		if err := <-s.logDone; err != nil {
			fmt.Fprintln(os.Stderr, "palirria-serve: event log:", err)
		}
	}
	if s.logFile != nil {
		if err := s.logFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "palirria-serve: event log:", err)
		}
	}
}

func splitTenants(s string) []string {
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	return names
}
