package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"palirria/internal/cluster"
	"palirria/internal/serve/httpapi"
)

// startClusterServer boots a palirria-serve instance in cluster mode on a
// real loopback listener (the gossip node needs its advertised address to
// be reachable before the handler is mounted).
func startClusterServer(t *testing.T, join string) (*server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions()
	opts.clusterAddr = "http://" + lis.Addr().String()
	opts.clusterJoin = join
	opts.gossipEvery = 20 * time.Millisecond
	s, err := newServer(opts)
	if err != nil {
		lis.Close()
		t.Fatal(err)
	}
	ts := &httptest.Server{Listener: lis, Config: &http.Server{Handler: s.api.Handler()}}
	ts.Start()
	t.Cleanup(func() { s.close(); ts.Close() })
	return s, opts.clusterAddr
}

func clusterView(t *testing.T, addr string) cluster.View {
	t.Helper()
	resp, err := http.Get(addr + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster = %d", resp.StatusCode)
	}
	v, err := cluster.DecodeView(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestServerClusterMode(t *testing.T) {
	_, addrA := startClusterServer(t, "")
	_, addrB := startClusterServer(t, addrA)

	// Both views converge on two alive members.
	for _, addr := range []string{addrA, addrB} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			v := clusterView(t, addr)
			alive := 0
			for _, p := range v.Peers {
				if p.State == cluster.StateAlive {
					alive++
				}
			}
			if alive == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never converged: %+v", addr, v.Peers)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Run a job on A, then check /status and /cluster tell one story:
	// both surfaces render the same pool Snapshot.
	resp, err := http.Post(addrA+"/submit?fanout=4&work=500", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}

	resp, err = http.Get(addrA + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st httpapi.StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Pools) != 1 {
		t.Fatalf("status pools = %+v", st.Pools)
	}
	snap := st.Pools[0]
	if snap.Spare != snap.Capacity-snap.Desire {
		t.Fatalf("status spare %d != capacity %d - desire %d", snap.Spare, snap.Capacity, snap.Desire)
	}

	v := clusterView(t, addrA)
	var self *cluster.PeerStatus
	for i := range v.Peers {
		if v.Peers[i].Self {
			self = &v.Peers[i]
		}
	}
	if self == nil {
		t.Fatalf("no self row in /cluster: %+v", v.Peers)
	}
	// The gossip record aggregates the same snapshot: a single-tenant
	// server's record equals its one pool's row (desire and allotment
	// move between reads, so compare against a fresh snapshot window).
	if self.QueueCap != snap.QueueCap {
		t.Fatalf("/cluster queue cap %d != /status %d", self.QueueCap, snap.QueueCap)
	}
	if self.Role != cluster.RoleServe {
		t.Fatalf("self role = %q", self.Role)
	}
	if self.Spare < 0 || self.Spare > snap.Capacity {
		t.Fatalf("self spare %d out of range (capacity %d)", self.Spare, snap.Capacity)
	}
}
