package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"palirria/internal/obs/stream"
)

// testNode builds a node with fast timers whose handlers are mounted on an
// httptest server; the node's advertised address is the server's URL.
func testNode(t *testing.T, secret string, join []string, hub *stream.Hub, snap func() Record) (*Node, *httptest.Server) {
	t.Helper()
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	n, err := NewNode(Config{
		Addr:         ts.URL,
		Secret:       secret,
		Snapshot:     snap,
		Join:         join,
		Interval:     20 * time.Millisecond,
		SuspectAfter: 100 * time.Millisecond,
		DeadAfter:    250 * time.Millisecond,
		Events:       hub,
	})
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	mux.HandleFunc("/gossip", n.GossipHandler())
	mux.HandleFunc("/cluster", n.ClusterHandler())
	t.Cleanup(func() { n.Stop(); ts.Close() })
	return n, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGossipConvergence(t *testing.T) {
	// Three nodes; only n2 and n3 know n1 as a seed, yet all three views
	// must converge transitively through anti-entropy.
	snap := func(desire, allot int) func() Record {
		return func() Record {
			return Record{Desire: desire, Allotment: allot, Spare: allot - desire}
		}
	}
	n1, ts1 := testNode(t, "", nil, nil, snap(1, 4))
	n2, _ := testNode(t, "", []string{ts1.URL}, nil, snap(2, 4))
	n3, _ := testNode(t, "", []string{ts1.URL}, nil, snap(4, 4))
	n1.Start()
	n2.Start()
	n3.Start()

	for _, n := range []*Node{n1, n2, n3} {
		n := n
		waitFor(t, 5*time.Second, "3-member convergence", func() bool {
			alive := 0
			for _, p := range n.View().Peers {
				if p.State == StateAlive {
					alive++
				}
			}
			return alive == 3
		})
	}

	// The merged view carries each peer's load signal.
	v := n1.View()
	spare := map[string]int{}
	for _, p := range v.Peers {
		spare[p.ID] = p.Spare
	}
	if spare[n2.ID()] != 2 || spare[n3.ID()] != 0 {
		t.Fatalf("gossiped spare = %v", spare)
	}
	// Serveable excludes nothing here: all three are alive serve nodes.
	if got := len(n1.Serveable()); got != 3 {
		t.Fatalf("Serveable = %d nodes, want 3", got)
	}
}

func TestSuspicionStateMachine(t *testing.T) {
	hub := stream.NewHub()
	defer hub.Close()
	sub := hub.Subscribe(stream.SubOptions{
		Buf: 256,
		Kinds: []stream.Kind{
			stream.KindPeerUp, stream.KindPeerSuspect, stream.KindPeerDead,
		},
	})
	defer sub.Close()

	n1, ts1 := testNode(t, "", nil, hub, nil)
	n2, _ := testNode(t, "", []string{ts1.URL}, nil, nil)
	n1.Start()
	n2.Start()

	waitFor(t, 5*time.Second, "peer up", func() bool {
		return n1.PeerState(n2.ID()) == StateAlive
	})

	// Silence n2: its record stops advancing, so n1 must walk
	// alive -> suspect -> dead on its own timers.
	n2.Stop()
	waitFor(t, 5*time.Second, "suspicion", func() bool {
		return n1.PeerState(n2.ID()) == StateSuspect
	})
	waitFor(t, 5*time.Second, "death", func() bool {
		return n1.PeerState(n2.ID()) == StateDead
	})

	// The transitions were published in order for n2.
	var kinds []stream.Kind
	timeout := time.After(2 * time.Second)
	for len(kinds) < 3 {
		select {
		case ev := <-sub.Events():
			if ev.Pool == n1.ID() && ev.Node == n2.ID() {
				kinds = append(kinds, ev.Kind)
			}
		case <-timeout:
			t.Fatalf("saw only %v", kinds)
		}
	}
	want := []stream.Kind{stream.KindPeerUp, stream.KindPeerSuspect, stream.KindPeerDead}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("transition order = %v, want %v", kinds, want)
		}
	}

	// A dead peer is not serveable and not a gossip target.
	for _, p := range n1.Serveable() {
		if p.ID == n2.ID() {
			t.Fatal("dead peer still serveable")
		}
	}
}

func TestSuspectRecovery(t *testing.T) {
	n1, ts1 := testNode(t, "", nil, nil, nil)
	n2, _ := testNode(t, "", []string{ts1.URL}, nil, nil)
	n1.Start()
	n2.Start()
	waitFor(t, 5*time.Second, "peer up", func() bool {
		return n1.PeerState(n2.ID()) == StateAlive
	})
	n2.Stop()
	waitFor(t, 5*time.Second, "suspicion", func() bool {
		return n1.PeerState(n2.ID()) == StateSuspect
	})
	// A newer record revives the suspect (it was slow, not dead). The
	// stopped node no longer gossips on its own, so inject its advanced
	// heartbeat into n1 directly — exactly what a relayed record does.
	rec := n2.self(n2.hb.Add(1))
	n1.merge(&rec)
	if got := n1.PeerState(n2.ID()); got != StateAlive {
		t.Fatalf("suspect with fresh record = %q, want alive", got)
	}
}

// TestStopWithoutStartReturns: Stop on a node whose loop never ran must not
// wait for it, a second Stop must not either, and a Start after Stop must
// not launch the loop.
func TestStopWithoutStartReturns(t *testing.T) {
	n, err := NewNode(Config{Addr: "http://127.0.0.1:1", Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		done := make(chan struct{})
		go func() { n.Stop(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("Stop #%d on a never-started node blocked", i)
		}
	}
	n.Start()
	time.Sleep(50 * time.Millisecond)
	if r := n.rounds.Load(); r != 0 {
		t.Fatalf("Start after Stop ran %d gossip rounds, want 0", r)
	}
}

func TestBadSignatureRejected(t *testing.T) {
	n1, ts1 := testNode(t, "s3cret", nil, nil, nil)
	n2, _ := testNode(t, "wrong", []string{ts1.URL}, nil, nil)
	n1.Start()
	n2.Start()
	// n2 keeps announcing itself under the wrong secret: n1 must reject
	// every record and never admit it to the membership table.
	waitFor(t, 2*time.Second, "bad signatures counted", func() bool {
		return n1.badSigs.Load() > 0
	})
	if st := n1.PeerState(n2.ID()); st != "" {
		t.Fatalf("forged peer admitted with state %q", st)
	}
}

// manyRecords builds n unsigned peer records with distinct ids.
func manyRecords(n int, pad string) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{ID: fmt.Sprintf("peer-%03d%s", i, pad), Addr: fmt.Sprintf("http://127.0.0.1:1/%d", i),
			Role: RoleServe, Epoch: 1, Heartbeat: 1}
	}
	return recs
}

func postGossip(t *testing.T, url string, msg gossipMsg) *http.Response {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/gossip", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestGossipBodyBounded pins the size bound on both directions of the
// exchange: an oversized POST is refused without touching the membership
// table, and a realistic 64-peer record set still merges — through the
// handler and through the reply path of a live exchange.
func TestGossipBodyBounded(t *testing.T) {
	n1, ts1 := testNode(t, "", nil, nil, nil)
	n1.Start()
	before := len(n1.View().Peers)

	// Well-formed JSON, 2 MiB of it: every record would merge if read.
	huge := manyRecords(4096, strings.Repeat("x", 512))
	resp := postGossip(t, ts1.URL, gossipMsg{From: "flood", Peers: huge})
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("2 MiB gossip POST: status %d, want 4xx", resp.StatusCode)
	}
	if got := len(n1.View().Peers); got != before {
		t.Fatalf("oversized gossip body changed the view: %d -> %d peers", before, got)
	}

	resp = postGossip(t, ts1.URL, gossipMsg{From: "peer-000", Peers: manyRecords(64, "")})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("64-peer gossip POST: status %d", resp.StatusCode)
	}
	if got := len(n1.View().Peers); got != before+64 {
		t.Fatalf("64-peer exchange merged %d peers, want 64", got-before)
	}

	// A joining node learns all of them from n1's reply.
	n2, _ := testNode(t, "", []string{ts1.URL}, nil, nil)
	n2.Start()
	waitFor(t, 2*time.Second, "64-peer reply merged", func() bool {
		return len(n2.View().Peers) >= 64+2
	})
}
