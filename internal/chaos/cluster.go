package chaos

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/cluster/pick"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/serve/httpapi"
	"palirria/internal/topo"
)

// chaosNode is one cluster member under test: a resident pool with its
// event hub, its gossip member, and its HTTP server on a real loopback
// listener (the router reaches it through the kernel, not a bench stub,
// so a kill produces genuine transport errors).
type chaosNode struct {
	id   string
	pool *serve.Pool
	hub  *stream.Hub
	node *cluster.Node
	srv  *http.Server
	addr string

	terminal *terminalAudit
	killOnce sync.Once

	// holding is closed once a ?hold=<id> submission is parked in this
	// node's handler (see runCluster's forced failover).
	holding  chan struct{}
	holdOnce sync.Once
}

// aimedPicker sends the first attempt of the one submission carrying key
// to the victim and leaves every other decision — that submission's retries
// included — to the real picker. It turns "a request happened to be picked
// for the victim just before it died" from a race into a step of the
// scenario; the failover it provokes is the router's own.
type aimedPicker struct {
	cluster.NodePicker
	key    string
	victim string
	view   func() []cluster.PeerStatus
}

func (a aimedPicker) PickSticky(key string, exclude ...string) (cluster.PeerStatus, error) {
	if key == a.key && len(exclude) == 0 {
		for _, p := range a.view() {
			if p.ID == a.victim {
				return p, nil
			}
		}
	}
	return a.NodePicker.PickSticky(key, exclude...)
}

// newChaosNode builds and starts one serve node: the daemon's own
// handler over one pool, behind a wrapper that parks a ?hold=<id>
// submission (see runCluster's forced failover).
func newChaosNode(sc *Script, idx int) (*chaosNode, error) {
	id := fmt.Sprintf("node-%d", idx)
	hub := stream.NewHub()
	pool, err := newPool(sc, id, topo.CoreID(sc.Source), hub)
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := "http://" + lis.Addr().String()
	gn, err := cluster.NewNode(cluster.Config{
		ID:           id,
		Addr:         addr,
		Role:         cluster.RoleServe,
		Snapshot:     func() cluster.Record { return httpapi.Record(pool) },
		Interval:     time.Duration(sc.GossipEveryUS) * time.Microsecond,
		SuspectAfter: time.Duration(sc.SuspectAfterUS) * time.Microsecond,
		DeadAfter:    time.Duration(sc.DeadAfterUS) * time.Microsecond,
		Events:       hub,
	})
	if err != nil {
		lis.Close()
		return nil, err
	}
	// No job has run yet, so the audit sees every terminal event.
	n := &chaosNode{id: id, pool: pool, hub: hub, node: gn, addr: addr,
		terminal: newTerminalAudit(hub, 1024), holding: make(chan struct{})}
	api := httpapi.New(httpapi.Config{
		Pools: []*serve.Pool{pool}, Hub: hub, Node: gn, Metrics: obs.NewRegistry(),
	}).Handler()
	n.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hold") == id {
			// Stay in flight, holding the connection, until the kill cuts
			// it; the same submission retried on another node runs normally.
			n.holdOnce.Do(func() { close(n.holding) })
			<-r.Context().Done()
			return
		}
		api.ServeHTTP(w, r)
	})}
	go n.srv.Serve(lis) //nolint:errcheck // returns ErrServerClosed on Close
	gn.Start()
	return n, nil
}

// kill cuts the node abruptly: live connections drop mid-flight, gossip
// stops, and the pool drains so its ledger settles; then the node's
// stream audit finishes and its hub closes. Idempotent.
func (n *chaosNode) kill(res *Result) {
	n.killOnce.Do(func() {
		n.node.Stop()
		n.srv.Close() //nolint:errcheck // closing listeners and live conns
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := n.pool.Drain(ctx); err != nil && !errors.Is(err, serve.ErrDraining) {
			res.fail("%s drain: %v", n.id, err)
		}
		n.terminal.finish(n.pool, res, n.id+" stream")
		n.hub.Close()
	})
}

// runCluster drives the full distributed stack: a router core over
// ClusterNodes loopback serve nodes, a submit storm through the router,
// and an abrupt node kill mid-storm. Invariants on top of the per-pool
// ledgers: every submission the router accepted (200) completed on some
// node (zero accepted-job loss), terminal events are exactly-once per
// pool, once the router's gossip confirms the kill no further submission
// is routed to the dead peer, the submission the scenario holds in flight
// at the victim is failed over to a survivor unseen by its client, and no
// goroutine outlives the teardown.
func runCluster(sc *Script, res *Result) {
	goroutines := runtime.NumGoroutine()
	var nodes []*chaosNode
	var seeds []string
	for i := 0; i < sc.ClusterNodes; i++ {
		n, err := newChaosNode(sc, i)
		if err != nil {
			res.fail("build %s: %v", fmt.Sprintf("node-%d", i), err)
			return
		}
		nodes, seeds = append(nodes, n), append(seeds, n.addr)
	}

	// The router is a gossip member too; its hub carries the lifecycle
	// the dead-peer check audits, through a durable subscriber whose
	// buffer is sized to the whole storm (a drop would blind the audit).
	rhub := stream.NewHub()
	rsub := rhub.Subscribe(stream.SubOptions{
		Buf: 2*len(sc.Jobs) + 256,
		Kinds: []stream.Kind{
			stream.KindRouted, stream.KindFailover,
			stream.KindPeerUp, stream.KindPeerSuspect, stream.KindPeerDead,
		},
	})
	var events []stream.Event
	evDone := make(chan struct{})
	go func() {
		defer close(evDone)
		for ev := range rsub.Events() {
			events = append(events, ev)
		}
	}()

	rlis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail("router listen: %v", err)
		return
	}
	rnode, err := cluster.NewNode(cluster.Config{
		ID:           "router",
		Addr:         "http://" + rlis.Addr().String(),
		Role:         cluster.RoleRouter,
		Join:         seeds,
		Interval:     time.Duration(sc.GossipEveryUS) * time.Microsecond,
		SuspectAfter: time.Duration(sc.SuspectAfterUS) * time.Microsecond,
		DeadAfter:    time.Duration(sc.DeadAfterUS) * time.Microsecond,
		Events:       rhub,
	})
	if err != nil {
		res.fail("router node: %v", err)
		return
	}
	victim := nodes[sc.KillNode%len(nodes)]
	const aimKey = "chaos-aimed-at-victim"
	core, err := cluster.NewRouter(cluster.RouterConfig{
		Node: rnode,
		Picker: aimedPicker{
			NodePicker: pick.New(rnode.Serveable, pick.Options{BreakFor: 50 * time.Millisecond}),
			key:        aimKey, victim: victim.id, view: rnode.Serveable,
		},
		Retries: sc.RouterRetries,
		Backoff: time.Millisecond,
		Client:  &http.Client{Timeout: 30 * time.Second},
		Events:  rhub,
	})
	if err != nil {
		res.fail("router core: %v", err)
		return
	}
	rsrv := &http.Server{Handler: core.Handler()}
	go rsrv.Serve(rlis) //nolint:errcheck // returns ErrServerClosed on Close
	rnode.Start()
	stop := func() { // drain every node, stop the router, end its event log
		for _, n := range nodes {
			n.kill(res)
		}
		rnode.Stop()
		rsrv.Close() //nolint:errcheck
		rhub.Close()
		<-evDone
	}
	routerURL := "http://" + rlis.Addr().String()

	// Wait for membership to converge before the storm; a router that
	// cannot see the cluster would fail everything vacuously.
	deadline := time.Now().Add(10 * time.Second)
	for len(rnode.Serveable()) < len(nodes) {
		if time.Now().After(deadline) {
			res.fail("router saw only %d of %d nodes", len(rnode.Serveable()), len(nodes))
			stop()
			return
		}
		time.Sleep(time.Millisecond)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	postQuery := func(spec JobSpec, extra string) (int, error) {
		url := fmt.Sprintf("%s/submit?fanout=%d&work=%d%s", routerURL, spec.Leaves, spec.ComputeNS, extra)
		resp, err := client.Post(url, "", nil)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, err
	}
	post := func(spec JobSpec) (int, error) { return postQuery(spec, "") }

	var attempted, accepted, rejected, failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < sc.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < len(sc.Jobs); j += sc.Submitters {
				spec := sc.Jobs[j]
				sleepUS(spec.DelayUS)
				attempted.Add(1)
				status, err := post(spec)
				switch {
				case err != nil:
					// The router itself is never killed; a transport error
					// to it is a harness failure, not chaos.
					failed.Add(1)
					res.fail("job %d: router unreachable: %v", j, err)
				case status == http.StatusOK:
					accepted.Add(1)
				default:
					rejected.Add(1)
				}
			}
		}(g)
	}

	// The abrupt kill, mid-storm — with one submission known to be in flight
	// at the victim when it happens. Whether a storm submission is there too
	// depends on where the picker has been sending load and on how soon
	// gossip notices the death, so the scenario places one itself: aimed at
	// the victim, parked in its handler, cut by the kill. The router must
	// fail it over to a survivor without the client noticing.
	if d := time.Duration(sc.KillAtUS)*time.Microsecond - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	aimedStatus := make(chan int, 1)
	go func() {
		status, err := postQuery(JobSpec{Leaves: 2, ComputeNS: 1000}, "&sticky="+aimKey+"&hold="+victim.id)
		if err != nil {
			res.fail("aimed submission: router unreachable: %v", err)
		}
		aimedStatus <- status
	}()
	attempted.Add(1)
	select {
	case <-victim.holding:
	case <-time.After(10 * time.Second):
		res.fail("aimed submission was not in flight at %s within 10s", victim.id)
	}
	victim.kill(res)
	switch status := <-aimedStatus; {
	case status == http.StatusOK:
		accepted.Add(1)
	case status >= http.StatusInternalServerError:
		res.fail("the client of the submission in flight at %s saw the kill: status %d", victim.id, status)
	default:
		rejected.Add(1)
	}
	wg.Wait()

	// Make the dead-peer check non-vacuous: wait for the router's gossip
	// to confirm the death, then push a probe burst that must all land on
	// survivors.
	deadline = time.Now().Add(10 * time.Second)
	for {
		// A reaped peer (state "") was necessarily dead first; with the
		// scenario's microsecond timers the reap can land before we look.
		if st := rnode.PeerState(victim.id); st == cluster.StateDead || st == "" {
			break
		}
		if time.Now().After(deadline) {
			res.fail("router never confirmed %s dead (state %q)", victim.id, rnode.PeerState(victim.id))
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		attempted.Add(1)
		status, err := post(JobSpec{Leaves: 2, ComputeNS: 1000})
		if err != nil {
			failed.Add(1)
			res.fail("probe %d: router unreachable: %v", i, err)
		} else if status == http.StatusOK {
			accepted.Add(1)
		} else {
			rejected.Add(1)
		}
	}

	stop()
	if d := rsub.Dropped(); d > 0 {
		res.fail("router event audit dropped %d event(s); buffer too small to audit ordering", d)
	}

	// Dead-peer ordering: once the router published peer-dead for the
	// victim, no later routed event may name it. Failover audit: the aimed
	// submission's trail is a failover away from the victim followed by its
	// routing to a survivor, and the router's counter is its event log.
	deadSeen, victimFailovers, aimedRouted := false, 0, false
	var failovers int64
	for _, ev := range events {
		switch ev.Kind {
		case stream.KindPeerDead:
			if ev.Node == victim.id {
				deadSeen = true
			}
		case stream.KindFailover:
			failovers++
			if ev.Node == victim.id {
				victimFailovers++
			}
		case stream.KindRouted:
			if deadSeen && ev.Node == victim.id {
				res.fail("submission routed to %s after its death was confirmed", victim.id)
			}
			if ev.Detail == aimKey {
				aimedRouted = true
				if ev.Node == victim.id || victimFailovers == 0 {
					res.fail("aimed submission routed to %s after %d failover(s) from %s: the kill it was in flight for triggered no failover",
						ev.Node, victimFailovers, victim.id)
				}
			}
		}
	}
	if !deadSeen {
		res.fail("router hub carries no peer-dead event for %s", victim.id)
	}
	if !aimedRouted {
		res.fail("router hub carries no routed event for the submission in flight at %s", victim.id)
	}
	if got := core.FailedOver(); got != failovers {
		res.fail("router counts %d failover(s), its hub published %d", got, failovers)
	}

	// Cluster-wide conservation and zero accepted-job loss.
	var admitted, completed, cancelled int64
	for _, n := range nodes {
		st := checkDrained(n.pool, res)
		admitted += st.Admitted
		completed += st.Completed
		cancelled += st.Cancelled
	}
	if admitted != completed+cancelled {
		res.fail("cluster ledger: admitted %d != completed %d + cancelled %d", admitted, completed, cancelled)
	}
	// Submissions run synchronously on the node, so every accepted (200)
	// reply rode a completed job; retries can complete a job whose reply
	// was lost in the kill, hence >=.
	if completed < accepted.Load() {
		res.fail("zero-loss: %d accepted submissions but only %d completions", accepted.Load(), completed)
	}

	// Nothing outlives the teardown: once the storm client's idle
	// keep-alives are closed, the process is back to the goroutines it had
	// before the cluster was built.
	client.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			res.fail("goroutine leak: %d goroutines after teardown, %d before the cluster was built",
				runtime.NumGoroutine(), goroutines)
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.Attempted = attempted.Load()
	res.Accepted = accepted.Load()
	res.Rejected = rejected.Load() + failed.Load()
	res.Completed = completed
	res.Discarded = cancelled
}
