// Package httpapi is a serving node's HTTP surface: the handlers
// palirria-serve mounts over its pools. It is a package of its own so that
// every program that stands up a node — the daemon, the chaos suite's
// cluster scenario, the cluster integration test — serves the same code.
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
//	POST /drain                               drain all pools, then signal Drained
//
// Submit replies 200 on completion, 429 while the pool sheds load or its
// admission queue is full (including class sheds and unmeetable
// deadlines), 503 once draining, and 400 on bad parameters. With count >
// 1 the jobs go through Pool.SubmitBatch; the reply reports how many
// completed and how many were rejected, and the error statuses above
// apply only when nothing completed. class picks the priority class
// (low, normal, high); deadline is a duration (e.g. 50ms) the job must
// start within; both apply to every node of a /submit-dag graph.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/workload"
	"palirria/internal/wsrt"
)

// Config is what a Server serves. The caller builds and owns everything
// in it: the Server starts nothing and closes nothing.
type Config struct {
	// Pools are the tenants in order, each addressed by its Name; the
	// first is the default tenant. At least one is required.
	Pools []*serve.Pool
	// Tenancy, when set, adds the arbiter's snapshot to /status.
	Tenancy *serve.Tenancy
	// Hub is the event stream /events subscribes to. Required.
	Hub *stream.Hub
	// Node, when set, serves /gossip and /cluster (else /cluster is 503).
	Node *cluster.Node
	// Metrics is rendered at /metrics. Required.
	Metrics *obs.Registry
	// EventBuf bounds each /events subscriber's buffer (default 1024).
	EventBuf int
	// Heartbeat is the /events comment-heartbeat period (default 10s).
	Heartbeat time.Duration
}

// Server holds a node's pools behind its HTTP surface.
type Server struct {
	cfg   Config
	pools map[string]*serve.Pool

	drainOnce sync.Once
	drained   chan struct{}
}

// New builds the server over cfg.
func New(cfg Config) *Server {
	if cfg.EventBuf <= 0 {
		cfg.EventBuf = 1024
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 10 * time.Second
	}
	s := &Server{cfg: cfg, pools: make(map[string]*serve.Pool, len(cfg.Pools)), drained: make(chan struct{})}
	for _, p := range cfg.Pools {
		s.pools[p.Name()] = p
	}
	return s
}

// Drained is closed once a POST /drain has drained every pool and written
// its reply.
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Record aggregates the pools' Stats into a node's gossiped load signal:
// desire, allotment, spare, and queue depth sum across tenants; the shed
// flag is any pool's latch; admit p99 is the worst pool's. Built on the
// same Stats /status renders, so the two surfaces can never disagree.
func Record(pools ...*serve.Pool) cluster.Record {
	var rec cluster.Record
	for _, p := range pools {
		st := p.Stats()
		rec.Desire += st.Desire
		rec.Allotment += st.Allotment
		rec.Spare += st.Spare
		rec.Queued += st.InFlight
		rec.QueueCap += st.QueueCap
		rec.Shed = rec.Shed || st.Shedding
		if st.AdmitP99 > rec.AdmitP99 {
			rec.AdmitP99 = st.AdmitP99
		}
	}
	return rec
}

// Handler mounts every endpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/metrics", s.cfg.Metrics.Handler())
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/submit-dag", s.handleSubmitDAG)
	mux.HandleFunc("/drain", s.handleDrain)
	if s.cfg.Node != nil {
		mux.HandleFunc("/gossip", s.cfg.Node.GossipHandler())
		mux.HandleFunc("/cluster", s.cfg.Node.ClusterHandler())
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

// jobQuery is a decoded /submit or /submit-dag query, every field within
// the bounds the handlers accept.
type jobQuery struct {
	fanout, work, count int
	class               serve.Class
	deadline            time.Time        // zero: none
	dag                 *workload.DAGDef // the /submit-dag graph; nil for /submit
}

// parseJobQuery decodes a /submit query, or a /submit-dag query when dag
// is set, for a request that arrived at now. An error is the 400 reply's
// text. It runs no job and reads no clock, so a fuzzer can drive it alone.
func parseJobQuery(q url.Values, dag bool, now time.Time) (jobQuery, error) {
	j := jobQuery{fanout: 64, work: 20_000, count: 1}
	var err error
	if dag {
		name := q.Get("workload")
		if name == "" {
			name = "pipeline"
		}
		if j.dag, err = workload.GetDAG(name); err != nil {
			return j, err
		}
		j.work = 0
	} else if j.fanout, err = intParam(q.Get("fanout"), j.fanout); err != nil || j.fanout < 1 || j.fanout > 1<<20 {
		return j, errors.New("bad fanout")
	}
	if j.work, err = intParam(q.Get("work"), j.work); err != nil || j.work < 0 || j.work > 1<<30 {
		return j, errors.New("bad work")
	}
	if !dag {
		if j.count, err = intParam(q.Get("count"), j.count); err != nil || j.count < 1 || j.count > 1<<14 {
			return j, errors.New("bad count")
		}
	}
	var ok bool
	if j.class, ok = serve.ParseClass(q.Get("class")); !ok {
		return j, fmt.Errorf("bad class %q (want low, normal or high)", q.Get("class"))
	}
	if ds := q.Get("deadline"); ds != "" {
		d, err := time.ParseDuration(ds)
		if err != nil || d <= 0 {
			return j, fmt.Errorf("bad deadline %q (want a positive duration)", ds)
		}
		j.deadline = now.Add(d)
	}
	if j.count > 1 && (j.class != serve.ClassLow || !j.deadline.IsZero()) {
		// Batch admission is low-class and deadline-free by contract.
		return j, errors.New("class/deadline require count=1")
	}
	return j, nil
}

// decodeJob is the prologue both submit handlers share: POST only, the
// tenant= pool (default: the first tenant; unknown is 404), then the job
// parameters (400 on any bad one). It answers every refusal itself and
// then returns a nil pool.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request, dag bool) (*serve.Pool, jobQuery) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, jobQuery{}
	}
	q := r.URL.Query()
	tenant := q.Get("tenant")
	if tenant == "" {
		tenant = s.cfg.Pools[0].Name()
	}
	p, ok := s.pools[tenant]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown tenant %q", tenant), http.StatusNotFound)
		return nil, jobQuery{}
	}
	j, err := parseJobQuery(q, dag, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, jobQuery{}
	}
	return p, j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	p, j := s.decodeJob(w, r, false)
	if p == nil {
		return
	}
	start := time.Now()
	if j.count > 1 {
		fns := make([]wsrt.Func, j.count)
		for i := range fns {
			fns[i] = fanJob(j.fanout, j.work)
		}
		completed, firstErr := tally(p.SubmitBatch(r.Context(), fns))
		if completed == 0 {
			refuse(w, firstErr)
			return
		}
		writeJSON(w, http.StatusOK, submitReply{
			Tenant: p.Name(), Fanout: j.fanout, Work: j.work,
			Count: j.count, Completed: completed, Rejected: j.count - completed,
			LatencyNS: time.Since(start).Nanoseconds(),
		})
		return
	}
	jb := serve.Job{Fn: fanJob(j.fanout, j.work), Class: j.class, Deadline: j.deadline}
	if err := p.SubmitJob(r.Context(), jb); err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, submitReply{
		Tenant: p.Name(), Fanout: j.fanout, Work: j.work,
		LatencyNS: time.Since(start).Nanoseconds(),
	})
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
// going away 503, anything else the client's own context (408). A request
// whose context was done before admission (serve.ErrExpired) and one
// whose admitted jobs it then cancelled both answer 408 — the client is
// gone either way — and only the second shows in the pool's counters.
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
func (s *Server) handleSubmitDAG(w http.ResponseWriter, r *http.Request) {
	p, j := s.decodeJob(w, r, true)
	if p == nil {
		return
	}
	in := j.dag.Inputs[workload.Simulator]
	if j.work > 0 {
		in.Grain = int64(j.work)
	}
	stages := j.dag.Build(in)
	nodes := make([]serve.DAGNode, len(stages))
	for i, st := range stages {
		nodes[i] = serve.DAGNode{
			Fn:       wsrt.SpecFunc(st.Build()),
			Deps:     st.Deps,
			Class:    j.class,
			Deadline: j.deadline,
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
		Tenant: p.Name(), Workload: j.dag.Name, Nodes: len(nodes),
		Completed: completed, Cancelled: len(nodes) - completed,
		LatencyNS: time.Since(start).Nanoseconds(),
	})
}

// handleEvents streams the hub over Server-Sent Events, filtered by kind
// (a comma-separated list), job (one id) and tenant. Each event goes
// out as an "id:"/"event:"/"data:" frame (id = hub sequence number,
// event = kind name, data = the JSON event); whenever the subscription
// has dropped more events since the last frame, a "drop" frame reports
// the delta and running total; comment heartbeats mark liveness. A
// client that stops reading wedges only its own handler goroutine — the
// hub keeps dropping (and counting) past the bounded buffer.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
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
	sub := s.cfg.Hub.Subscribe(stream.SubOptions{
		Buf: s.cfg.EventBuf, Kinds: kinds, Job: jobID, Pool: pool,
	})
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": palirria-serve event stream\n\n")
	fl.Flush()

	hb := time.NewTicker(s.cfg.Heartbeat)
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

// StatusReply is the /status and /drain response body. Pools carries the
// same serve.Stats records the cluster layer gossips, so /status and
// /cluster can never disagree about a pool's load.
type StatusReply struct {
	Pools     []serve.Stats        `json:"pools"`
	Tenants   []serve.TenantStatus `json:"tenants,omitempty"`
	FreeCores int                  `json:"free_cores,omitempty"`
}

func (s *Server) poolStats() []serve.Stats {
	stats := make([]serve.Stats, len(s.cfg.Pools))
	for i, p := range s.cfg.Pools {
		stats[i] = p.Stats()
	}
	return stats
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	rep := StatusReply{Pools: s.poolStats()}
	if s.cfg.Tenancy != nil {
		rep.Tenants = s.cfg.Tenancy.Snapshot()
		rep.FreeCores = s.cfg.Tenancy.FreeCores()
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(s.cfg.Pools))
	for i, p := range s.cfg.Pools {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.Drain(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			http.Error(w, fmt.Sprintf("drain %q: %v", s.cfg.Pools[i].Name(), err),
				http.StatusInternalServerError)
			return
		}
	}
	writeJSON(w, http.StatusOK, StatusReply{Pools: s.poolStats()})
	s.drainOnce.Do(func() { close(s.drained) })
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
