// palirria-serve is a long-lived serving daemon over persistent
// work-stealing pools: the paper's motivating scenario (an on-line server
// whose parallelism follows incoming load) as a runnable process.
//
// Each tenant is one serve.Pool keeping a resident runtime; jobs are
// synthetic fork/join fans submitted over HTTP and executed synchronously.
// With more than one tenant the pools share a machine model through
// serve.Tenancy, and a re-arbitration loop redistributes worker shares by
// live desire.
//
// Endpoints:
//
//	GET  /healthz                             liveness probe
//	GET  /metrics                             Prometheus text format
//	GET  /status                              pool stats + tenancy snapshot
//	GET  /cluster                             gossip membership view (cluster mode)
//	POST /gossip                              anti-entropy exchange (cluster mode)
//	GET  /events?kind=&job=&tenant=           live SSE event stream
//	POST /submit?tenant=&fanout=&work=        run one job, reply when done
//	POST /submit?count=N&...                  run N jobs via batch admission
//	POST /submit?class=&deadline=&...         priority class / start deadline
//	POST /submit-dag?workload=&tenant=&...    run one structured job graph
//	POST /drain                               drain all pools, then exit 0
//
// With -cluster-addr the daemon joins a gossip cluster: it periodically
// exchanges a signed state record (desire, allotment, spare parallelism,
// queue depth, admit p99, shed state) with its peers, publishes
// peer-up/peer-suspect/peer-dead lifecycle events on the stream hub, and
// serves the merged membership view at /cluster. A palirria-router in
// front of the cluster steers submissions toward the node advertising the
// most spare parallelism; see docs/CLUSTER.md.
//
// /events streams job lifecycle, estimator quantum, and cluster events
// as Server-Sent Events; kind takes a comma-separated list of event
// kinds, job a single job id, tenant a pool name. Every subscriber has a
// bounded buffer (-event-buffer): a slow client loses events — announced
// by "drop" frames carrying exact counts — rather than backpressuring
// the scheduler. Comment heartbeats keep idle connections alive. The
// -sink flag (jsonl:- for stdout, jsonl:/path to append to a file)
// additionally writes the full stream as JSON lines; the log is one more
// subscriber with the same -event-buffer bound and drop accounting.
//
// Submit replies 200 on completion, 429 while the pool sheds load or its
// admission queue is full (including class sheds and unmeetable
// deadlines), 503 once draining, and 400 on bad parameters. With count >
// 1 the jobs go through Pool.SubmitBatch; the reply reports how many
// completed and how many were rejected, and the error statuses above
// apply only when nothing completed. class picks the priority class
// (low, normal, high); deadline is a duration (e.g. 50ms) the job must
// start within. Submit-dag runs one structured job — a registered DAG
// workload (pipeline, mapreduce) expanded into a dependency graph and
// admitted as a unit through Pool.SubmitDAG; the reply counts completed
// and cancelled nodes.
//
// Usage:
//
//	palirria-serve -listen :8077 -mesh 4x4 -quantum 2ms
//	palirria-serve -tenants web,batch -machine 8x4
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/workload"
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
		lis.Addr(), len(s.pools), opts.mesh)

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
	srv := &http.Server{Handler: s.handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(lis) //nolint:errcheck // returns ErrServerClosed on Shutdown
	<-s.drained
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

// server owns the pools, the optional tenancy, and the shared metrics
// registry. It is separated from main so tests can drive the HTTP surface
// without a process.
type server struct {
	reg   *obs.Registry
	names []string // tenant order, for stable /status output
	pools map[string]*serve.Pool
	ten   *serve.Tenancy // nil in single-tenant mode

	hub       *stream.Hub
	eventBuf  int
	heartbeat time.Duration
	logDone   chan error // the -sink event log's result; nil without -sink
	logFile   *os.File   // the -sink file; nil for stdout

	node *cluster.Node // nil outside cluster mode

	drainOnce sync.Once
	drained   chan struct{}
}

// clusterRecord aggregates every pool's Snapshot into the node's gossiped
// load signal: desire, allotment, spare, and queue depth sum across
// tenants; the shed flag is any pool's latch; admit p99 is the worst
// pool's. Built on the same Snapshot the /status endpoint renders, so the
// two surfaces can never disagree.
func (s *server) clusterRecord() cluster.Record {
	var rec cluster.Record
	for _, name := range s.names {
		snap := s.pools[name].Snapshot()
		rec.Desire += snap.Desire
		rec.Allotment += snap.Allotment
		rec.Spare += snap.Spare
		rec.Queued += snap.InFlight
		rec.QueueCap += snap.QueueCap
		rec.Shed = rec.Shed || snap.Shedding
		if snap.AdmitP99 > rec.AdmitP99 {
			rec.AdmitP99 = snap.AdmitP99
		}
	}
	return rec
}

func newServer(opts options) (*server, error) {
	dims, err := parseMesh(opts.mesh)
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
	if opts.heartbeat <= 0 {
		opts.heartbeat = 10 * time.Second
	}
	s := &server{
		reg:       obs.NewRegistry(),
		names:     names,
		pools:     make(map[string]*serve.Pool, len(names)),
		hub:       stream.NewHub(),
		eventBuf:  opts.eventBuf,
		heartbeat: opts.heartbeat,
		drained:   make(chan struct{}),
	}
	s.hub.Register(s.reg)
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
				Metrics: s.reg,
			},
			QueueCap:   opts.queueCap,
			ShedQuanta: opts.shedQuanta,
			Metrics:    s.reg,
			Events:     s.hub,
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("pool %q: %w", name, err)
		}
		s.pools[name] = p
	}
	if len(names) > 1 {
		mdims, err := parseMesh(opts.machine)
		if err != nil {
			s.close()
			return nil, err
		}
		machine, err := topo.NewMesh(mdims...)
		if err != nil {
			s.close()
			return nil, err
		}
		s.ten = serve.NewTenancy(machine, opts.rearbitrate)
		// Spread the tenants' source cores across the machine so their
		// seed zones do not collide.
		usable := machine.Usable()
		for i, name := range names {
			src := topo.CoreID(i * usable / len(names))
			if err := s.ten.Attach(s.pools[name], src); err != nil {
				s.close()
				return nil, fmt.Errorf("attach %q: %w", name, err)
			}
		}
		s.ten.Start()
	}
	if opts.clusterAddr != "" {
		node, err := cluster.NewNode(cluster.Config{
			Addr:         opts.clusterAddr,
			Role:         cluster.RoleServe,
			Secret:       opts.clusterSecret,
			Snapshot:     s.clusterRecord,
			Join:         splitTenants(opts.clusterJoin),
			Interval:     opts.gossipEvery,
			SuspectAfter: opts.suspectAfter,
			DeadAfter:    opts.deadAfter,
			Events:       s.hub,
			Metrics:      s.reg,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.node = node
		node.Start()
	}
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
	sub := s.hub.Subscribe(stream.SubOptions{Buf: s.eventBuf})
	s.logDone = make(chan error, 1)
	go func() { s.logDone <- stream.WriteJSONL(sub, out) }()
	return nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/submit-dag", s.handleSubmitDAG)
	mux.HandleFunc("/drain", s.handleDrain)
	if s.node != nil {
		mux.HandleFunc("/gossip", s.node.GossipHandler())
		mux.HandleFunc("/cluster", s.node.ClusterHandler())
	} else {
		mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "cluster mode disabled (start with -cluster-addr)",
				http.StatusServiceUnavailable)
		})
	}
	return mux
}

// submitReply is the /submit response body. The batch fields are only set
// when the request carried count > 1.
type submitReply struct {
	Tenant    string `json:"tenant"`
	Fanout    int    `json:"fanout"`
	Work      int    `json:"work"`
	Count     int    `json:"count,omitempty"`
	Completed int    `json:"completed,omitempty"`
	Rejected  int    `json:"rejected,omitempty"`
	LatencyNS int64  `json:"latency_ns"`
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	tenant, p := s.tenantPool(w, q)
	if p == nil {
		return
	}
	fanout, err := intParam(q.Get("fanout"), 64)
	if err != nil || fanout < 1 || fanout > 1<<20 {
		http.Error(w, "bad fanout", http.StatusBadRequest)
		return
	}
	work, err := intParam(q.Get("work"), 20_000)
	if err != nil || work < 0 || work > 1<<30 {
		http.Error(w, "bad work", http.StatusBadRequest)
		return
	}
	count, err := intParam(q.Get("count"), 1)
	if err != nil || count < 1 || count > 1<<14 {
		http.Error(w, "bad count", http.StatusBadRequest)
		return
	}
	class, deadline, perr := classDeadlineParams(q)
	if perr != nil {
		http.Error(w, perr.Error(), http.StatusBadRequest)
		return
	}
	if count > 1 && (class != serve.ClassLow || !deadline.IsZero()) {
		// Batch admission is low-class and deadline-free by contract.
		http.Error(w, "class/deadline require count=1", http.StatusBadRequest)
		return
	}
	start := time.Now()
	if count > 1 {
		fns := make([]wsrt.Func, count)
		for i := range fns {
			fns[i] = fanJob(fanout, work)
		}
		completed, firstErr := tally(p.SubmitBatch(r.Context(), fns))
		if completed == 0 {
			refuse(w, firstErr)
			return
		}
		writeJSON(w, http.StatusOK, submitReply{
			Tenant: tenant, Fanout: fanout, Work: work,
			Count: count, Completed: completed, Rejected: count - completed,
			LatencyNS: time.Since(start).Nanoseconds(),
		})
		return
	}
	jb := serve.Job{Fn: fanJob(fanout, work), Class: class, Deadline: deadline}
	if err := p.SubmitJob(r.Context(), jb); err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, submitReply{
		Tenant: tenant, Fanout: fanout, Work: work,
		LatencyNS: time.Since(start).Nanoseconds(),
	})
}

// tenantPool resolves the tenant= parameter (default: the first tenant) to
// its pool. An unknown tenant is answered 404 here and returns a nil pool.
func (s *server) tenantPool(w http.ResponseWriter, q url.Values) (string, *serve.Pool) {
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = s.names[0]
	}
	p, ok := s.pools[tenant]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tenant %q", tenant), http.StatusNotFound)
		return tenant, nil
	}
	return tenant, p
}

// tally counts the entries that completed and returns the first error.
func tally(errs []error) (completed int, first error) {
	for _, err := range errs {
		if err == nil {
			completed++
		} else if first == nil {
			first = err
		}
	}
	return completed, first
}

// refuse answers a submission nothing of which completed: backpressure
// (full queue, shed ladder, unmeetable deadline) is 429, a pool that is
// going away 503, anything else the client's own context.
func refuse(w http.ResponseWriter, err error) {
	status := http.StatusRequestTimeout // context cancellation: the client went away
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrOverloaded),
		errors.Is(err, serve.ErrDeadline):
		status = http.StatusTooManyRequests
	case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrDiscarded):
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

// classDeadlineParams parses the shared class= and deadline= query
// parameters: class names a priority class (empty keeps the low default),
// deadline is a positive duration the job must start within.
func classDeadlineParams(q url.Values) (serve.Class, time.Time, error) {
	class, ok := serve.ParseClass(q.Get("class"))
	if !ok {
		return 0, time.Time{}, fmt.Errorf("bad class %q (want low, normal or high)", q.Get("class"))
	}
	var deadline time.Time
	if ds := q.Get("deadline"); ds != "" {
		d, err := time.ParseDuration(ds)
		if err != nil || d <= 0 {
			return 0, time.Time{}, fmt.Errorf("bad deadline %q (want a positive duration)", ds)
		}
		deadline = time.Now().Add(d)
	}
	return class, deadline, nil
}

// submitDAGReply is the /submit-dag response body.
type submitDAGReply struct {
	Tenant    string `json:"tenant"`
	Workload  string `json:"workload"`
	Nodes     int    `json:"nodes"`
	Completed int    `json:"completed"`
	Cancelled int    `json:"cancelled"`
	LatencyNS int64  `json:"latency_ns"`
}

// handleSubmitDAG expands a registered DAG workload into a dependency
// graph and runs it as one structured job: nodes are admitted as a unit,
// released as their predecessors complete, and the reply reports how the
// graph resolved. The class and deadline parameters apply to every node.
func (s *server) handleSubmitDAG(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	tenant, p := s.tenantPool(w, q)
	if p == nil {
		return
	}
	name := q.Get("workload")
	if name == "" {
		name = "pipeline"
	}
	def, err := workload.GetDAG(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	work, err := intParam(q.Get("work"), 0)
	if err != nil || work < 0 || work > 1<<30 {
		http.Error(w, "bad work", http.StatusBadRequest)
		return
	}
	class, deadline, perr := classDeadlineParams(q)
	if perr != nil {
		http.Error(w, perr.Error(), http.StatusBadRequest)
		return
	}
	in := def.Inputs[workload.Simulator]
	if work > 0 {
		in.Grain = int64(work)
	}
	stages := def.Build(in)
	nodes := make([]serve.DAGNode, len(stages))
	for i, st := range stages {
		nodes[i] = serve.DAGNode{
			Fn:       wsrt.SpecFunc(st.Build()),
			Deps:     st.Deps,
			Class:    class,
			Deadline: deadline,
		}
	}
	start := time.Now()
	errs, err := p.SubmitDAG(r.Context(), nodes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	completed, firstErr := tally(errs)
	if completed == 0 && firstErr != nil {
		refuse(w, firstErr)
		return
	}
	writeJSON(w, http.StatusOK, submitDAGReply{
		Tenant: tenant, Workload: name, Nodes: len(nodes),
		Completed: completed, Cancelled: len(nodes) - completed,
		LatencyNS: time.Since(start).Nanoseconds(),
	})
}

// handleEvents streams the hub over Server-Sent Events. Each event goes
// out as an "id:"/"event:"/"data:" frame (id = hub sequence number,
// event = kind name, data = the JSON event); whenever the subscription
// has dropped more events since the last frame, a "drop" frame reports
// the delta and running total; comment heartbeats mark liveness. A
// client that stops reading wedges only its own handler goroutine — the
// hub keeps dropping (and counting) past the bounded buffer.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	var kinds []stream.Kind
	if ks := q.Get("kind"); ks != "" {
		for _, part := range strings.Split(ks, ",") {
			k, ok := stream.ParseKind(strings.TrimSpace(part))
			if !ok {
				http.Error(w, fmt.Sprintf("unknown kind %q", part), http.StatusBadRequest)
				return
			}
			kinds = append(kinds, k)
		}
	}
	var jobID uint64
	if js := q.Get("job"); js != "" {
		v, err := strconv.ParseUint(js, 10, 64)
		if err != nil || v == 0 {
			http.Error(w, "bad job id", http.StatusBadRequest)
			return
		}
		jobID = v
	}
	pool := q.Get("tenant")
	if pool != "" {
		if _, ok := s.pools[pool]; !ok {
			http.Error(w, fmt.Sprintf("unknown tenant %q", pool), http.StatusNotFound)
			return
		}
	}
	sub := s.hub.Subscribe(stream.SubOptions{
		Buf: s.eventBuf, Kinds: kinds, Job: jobID, Pool: pool,
	})
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": palirria-serve event stream\n\n")
	fl.Flush()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	var reported int64
	dropFrame := func() {
		if d := sub.Dropped(); d > reported {
			fmt.Fprintf(w, "event: drop\ndata: {\"dropped\":%d,\"total\":%d}\n\n",
				d-reported, d)
			reported = d
		}
	}
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return // hub closed: server shutting down
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			dropFrame()
			fl.Flush()
		case <-hb.C:
			fmt.Fprintf(w, ": heartbeat\n\n")
			dropFrame()
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// statusReply is the /status response body. Pools carries the same
// serve.Snapshot records the cluster layer gossips, so /status and
// /cluster can never disagree about a pool's load.
type statusReply struct {
	Pools     []serve.Snapshot     `json:"pools"`
	Tenants   []serve.TenantStatus `json:"tenants,omitempty"`
	FreeCores int                  `json:"free_cores,omitempty"`
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var rep statusReply
	for _, name := range s.names {
		rep.Pools = append(rep.Pools, s.pools[name].Snapshot())
	}
	if s.ten != nil {
		rep.Tenants = s.ten.Snapshot()
		rep.FreeCores = s.ten.FreeCores()
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(s.names))
	for i, name := range s.names {
		wg.Add(1)
		go func(i int, p *serve.Pool) {
			defer wg.Done()
			errs[i] = p.Drain(ctx)
		}(i, s.pools[name])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			http.Error(w, fmt.Sprintf("drain %q: %v", s.names[i], err),
				http.StatusInternalServerError)
			return
		}
	}
	var rep statusReply
	for _, name := range s.names {
		rep.Pools = append(rep.Pools, s.pools[name].Snapshot())
	}
	writeJSON(w, http.StatusOK, rep)
	s.drainOnce.Do(func() { close(s.drained) })
}

// close releases whatever newServer built; pools that never drained are
// drained with a short grace period. The hub closes after the drains, and
// the event log is waited for before its file closes, so every terminal
// event reaches the log.
func (s *server) close() {
	if s.node != nil {
		s.node.Stop()
	}
	if s.ten != nil {
		s.ten.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, p := range s.pools {
		p.Drain(ctx) //nolint:errcheck // best-effort teardown
	}
	s.hub.Close()
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

// fanJob builds the synthetic serving workload: a binary fan of n leaves,
// each computing work synthetic cycles.
func fanJob(n, work int) wsrt.Func {
	var fan func(c *wsrt.Ctx, n int)
	fan = func(c *wsrt.Ctx, n int) {
		if n <= 1 {
			c.Compute(int64(work))
			return
		}
		c.Spawn(func(cc *wsrt.Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	return func(c *wsrt.Ctx) { fan(c, n) }
}

// parseMesh turns "4x4" or "8x4x2" into mesh extents.
func parseMesh(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) < 1 || len(parts) > 3 {
		return nil, fmt.Errorf("bad mesh %q: want DXxDY or DXxDYxDZ", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad mesh %q: dimension %q", s, p)
		}
		dims[i] = v
	}
	return dims, nil
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

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}
