// Integration test: three real serving nodes (resident work-stealing
// pools behind HTTP), one router, all gossiping in-process. Exercises the
// whole distributed story end to end under -race: desire-steered routing
// concentrates a skewed burst on the node with spare parallelism, a
// mid-burst node kill fails over with zero accepted-job loss, and the
// cluster-wide ledger balances at drain.
package cluster_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/cluster/pick"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/serve/httpapi"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// serveNode is one in-process cluster member: a resident pool behind the
// daemon's own handler (internal/serve/httpapi), and its gossip loop.
type serveNode struct {
	id   string
	pool *serve.Pool
	node *cluster.Node
	ts   *httptest.Server
}

func newServeNode(t *testing.T, id string, meshW int, seeds []string) *serveNode {
	t.Helper()
	hub := stream.NewHub()
	pool, err := serve.New(serve.Config{
		Name:     id,
		Runtime:  wsrt.Config{Mesh: topo.MustMesh(meshW, 1)},
		QueueCap: 256,
		Events:   hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	node, err := cluster.NewNode(cluster.Config{
		ID:           id,
		Addr:         ts.URL,
		Role:         cluster.RoleServe,
		Snapshot:     func() cluster.Record { return httpapi.Record(pool) },
		Join:         seeds,
		Interval:     20 * time.Millisecond,
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
	})
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	sn := &serveNode{id: id, pool: pool, node: node, ts: ts}
	mux.Handle("/", httpapi.New(httpapi.Config{
		Pools: []*serve.Pool{pool}, Hub: hub, Node: node, Metrics: obs.NewRegistry(),
	}).Handler())
	node.Start()
	t.Cleanup(func() { sn.kill(t) })
	return sn
}

// kill abruptly removes the node: in-flight client connections are cut
// (the router sees transport errors), gossip stops, and the pool drains
// so its ledger settles. Idempotent.
func (s *serveNode) kill(t *testing.T) {
	t.Helper()
	s.node.Stop()
	s.ts.CloseClientConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.pool.Drain(ctx); err != nil && !errors.Is(err, serve.ErrDraining) {
		t.Errorf("drain %s: %v", s.id, err)
	}
}

// submitPath asks for a 32-leaf fan of 64 cycles a leaf, about the work of
// a ParallelReduce over 2000 elements at grain 64. The job is synchronous:
// a 200 reply means the fan ran to completion on the node's runtime.
const submitPath = "/submit?fanout=32&work=64"

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestClusterEndToEnd(t *testing.T) {
	// Skewed capacity: one 8-wide node among two 2-wide ones. Everyone
	// idles near the minimum desire, so the wide node is the only member
	// with positive spare parallelism — the burst should concentrate there.
	big := newServeNode(t, "big", 8, nil)
	s1 := newServeNode(t, "small1", 2, []string{big.ts.URL})
	s2 := newServeNode(t, "small2", 2, []string{big.ts.URL})

	hub := stream.NewHub()
	defer hub.Close()
	rnode, err := cluster.NewNode(cluster.Config{
		ID: "router", Addr: "http://router.test", Role: cluster.RoleRouter,
		Join:         []string{big.ts.URL, s1.ts.URL, s2.ts.URL},
		Interval:     20 * time.Millisecond,
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    300 * time.Millisecond,
		Events:       hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	rnode.Start()
	defer rnode.Stop()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Node:    rnode,
		Picker:  pick.New(rnode.Serveable, pick.Options{}),
		Retries: 2,
		Backoff: time.Millisecond,
		Events:  hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	waitUntil(t, 5*time.Second, "router sees 3 serve nodes", func() bool {
		return len(rnode.Serveable()) == 3
	})
	waitUntil(t, 5*time.Second, "spare signal gossiped", func() bool {
		for _, p := range rnode.Serveable() {
			if p.ID == "big" && p.Spare > 0 {
				return true
			}
		}
		return false
	})

	// Phase 1: a skewed burst of 60 submissions, all answered 200. Where
	// they land depends on gossip timing, so the distribution is logged,
	// not asserted; pick's TestPickPrefersSpareTier pins "the spare node
	// wins" deterministically.
	perNode := map[string]int{}
	const burst = 60
	for i := 0; i < burst; i++ {
		resp, err := http.Post(front.URL+submitPath, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst submit %d: status %d", i, resp.StatusCode)
		}
		perNode[resp.Header.Get("X-Palirria-Node")]++
	}
	t.Logf("skewed burst distribution: %v", perNode)

	// Phase 2: kill the favoured node mid-burst. Every submission the
	// router accepts (200) must still complete — failover to the small
	// nodes, zero accepted-job loss.
	var accepted, failed, attempts atomic.Int64
	after := map[string]*atomic.Int64{"big": {}, "small1": {}, "small2": {}}
	var wg sync.WaitGroup
	// The kill is triggered by submission count, not wall clock: a timer
	// races the storm (on a fast run the whole burst can finish before it
	// fires, leaving nothing to fail over). After killReady the submitters
	// block until the kill lands, so a known-post-kill tail of the burst
	// always exercises failover against the closed listener.
	killReady := make(chan struct{})
	killed := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				// Only submissions *initiated* after the kill count for
				// the dead-node check: one already in flight at the kill
				// may legitimately have been served by the node's last
				// breath.
				startedAfterKill := false
				select {
				case <-killReady:
					<-killed
					startedAfterKill = true
				default:
				}
				if attempts.Add(1) == 20 {
					close(killReady)
				}
				resp, err := http.Post(front.URL+submitPath, "", nil)
				if err != nil {
					failed.Add(1)
					continue
				}
				node := resp.Header.Get("X-Palirria-Node")
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					accepted.Add(1)
					if startedAfterKill {
						if c := after[node]; c != nil {
							c.Add(1)
						}
					}
				} else {
					failed.Add(1)
				}
			}
		}()
	}
	<-killReady
	big.kill(t)
	close(killed)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d submissions failed outright; failover should have absorbed the kill (failover count %d)",
			failed.Load(), rt.FailedOver())
	}
	if rt.FailedOver() == 0 {
		t.Fatal("killing the favoured node triggered no failover")
	}
	if n := after["big"].Load(); n != 0 {
		t.Fatalf("%d submissions served by the dead node after the kill", n)
	}
	if after["small1"].Load()+after["small2"].Load() == 0 {
		t.Fatal("no post-kill submission landed on the surviving nodes")
	}

	// The router must eventually suspect and then confirm the death.
	waitUntil(t, 5*time.Second, "dead node leaves the serveable set", func() bool {
		for _, p := range rnode.Serveable() {
			if p.ID == "big" {
				return false
			}
		}
		return true
	})

	// Drain the survivors and audit the cluster-wide ledger: every
	// admitted job terminal, nothing lost. (kill already drained big.)
	s1.kill(t)
	s2.kill(t)
	var admitted, terminal, completed int64
	for _, n := range []*serveNode{big, s1, s2} {
		st := n.pool.Stats()
		if st.Admitted != st.Completed+st.Cancelled {
			t.Errorf("%s ledger: admitted %d != completed %d + cancelled %d",
				n.id, st.Admitted, st.Completed, st.Cancelled)
		}
		admitted += st.Admitted
		terminal += st.Completed + st.Cancelled
		completed += st.Completed
	}
	if admitted != terminal {
		t.Fatalf("cluster ledger: admitted %d != terminal %d", admitted, terminal)
	}
	// Submit is synchronous, so each accepted reply rode a completed job.
	// Retries can complete a job whose reply was lost, so >= not ==.
	want := int64(burst) + accepted.Load()
	if completed < want {
		t.Fatalf("completed %d < accepted %d: accepted jobs were lost", completed, want)
	}
	t.Logf("accepted=%d completed=%d failover=%d post-kill=%v",
		want, completed, rt.FailedOver(),
		map[string]int64{"small1": after["small1"].Load(), "small2": after["small2"].Load()})
}
