package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"palirria/internal/obs/stream"
)

var errPickExhausted = errors.New("scripted picker exhausted")

// scriptedPicker hands out targets in order and records outcome reports.
type scriptedPicker struct {
	mu      sync.Mutex
	targets []PeerStatus
	next    int
	keys    []string
	reports map[string][]bool
}

func (s *scriptedPicker) PickSticky(key string, exclude ...string) (PeerStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys = append(s.keys, key)
outer:
	for ; s.next < len(s.targets); s.next++ {
		t := s.targets[s.next]
		for _, id := range exclude {
			if id == t.ID {
				continue outer
			}
		}
		s.next++
		return t, nil
	}
	return PeerStatus{}, errPickExhausted
}

func (s *scriptedPicker) Report(id string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reports == nil {
		s.reports = map[string][]bool{}
	}
	s.reports[id] = append(s.reports[id], ok)
}

// testRouter builds a Router over a non-gossiping Node and the picker.
func testRouter(t *testing.T, p NodePicker, hub *stream.Hub) *Router {
	t.Helper()
	node, err := NewNode(Config{Addr: "http://router.test", Role: RoleRouter})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Node: node, Picker: p, Retries: 2, Backoff: 1, Events: hub})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func peerFor(ts *httptest.Server, id string) PeerStatus {
	return PeerStatus{
		Record: Record{ID: id, Addr: ts.URL, Role: RoleServe},
		State:  StateAlive,
	}
}

func TestRouterProxiesSubmit(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/submit" || r.URL.RawQuery != "mode=mesh&count=1" {
			t.Errorf("backend saw %s?%s", r.URL.Path, r.URL.RawQuery)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"ok":true}`)
	}))
	defer backend.Close()

	p := &scriptedPicker{targets: []PeerStatus{peerFor(backend, "n1")}}
	rt := testRouter(t, p, nil)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/submit?mode=mesh&count=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Palirria-Node"); got != "n1" {
		t.Fatalf("X-Palirria-Node = %q", got)
	}
	if string(body) != `{"ok":true}` {
		t.Fatalf("body = %s", body)
	}
	if rt.Routed() != 1 || rt.FailedOver() != 0 {
		t.Fatalf("counters routed=%d failedOver=%d", rt.Routed(), rt.FailedOver())
	}
	if got := p.reports["n1"]; len(got) != 1 || !got[0] {
		t.Fatalf("reports = %v", p.reports)
	}
}

// TestRouterRefusesOversizeBody: a body over maxWireBody is answered 413
// and never forwarded, not cut to the limit and replayed on every retry;
// a small body still routes.
func TestRouterRefusesOversizeBody(t *testing.T) {
	var seen atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		io.Copy(io.Discard, r.Body) //nolint:errcheck // test backend
	}))
	defer backend.Close()

	p := &scriptedPicker{targets: []PeerStatus{peerFor(backend, "n1"), peerFor(backend, "n2")}}
	rt := testRouter(t, p, nil)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	post := func(n int) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/submit?mode=mesh", "", bytes.NewReader(make([]byte, n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(2 << 20); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status %d, want 413", got)
	}
	if n := seen.Load(); n != 0 || rt.Routed() != 0 || rt.Failed() != 0 {
		t.Fatalf("oversize body reached the node %d times (routed %d, failed %d)", n, rt.Routed(), rt.Failed())
	}
	if got := post(512); got != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", got)
	}
	if n := seen.Load(); n != 1 {
		t.Fatalf("node saw %d requests, want 1", n)
	}
}

// TestRouterFailsOverOnOversizeReply: a node reply over maxWireBody is a
// failed attempt, not buffered whole and passed on; the router fails over
// to a good node, and answers 502 when every node replies over the bound.
func TestRouterFailsOverOnOversizeReply(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 2<<20)) //nolint:errcheck // the router may hang up early
	}))
	defer huge.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"ok":true}`)
	}))
	defer good.Close()

	for _, tc := range []struct {
		targets []PeerStatus
		want    int
		node    string
	}{
		{[]PeerStatus{peerFor(huge, "huge"), peerFor(good, "good")}, http.StatusOK, "good"},
		{[]PeerStatus{peerFor(huge, "a"), peerFor(huge, "b"), peerFor(huge, "c")}, http.StatusBadGateway, ""},
	} {
		rt := testRouter(t, &scriptedPicker{targets: tc.targets}, nil)
		srv := httptest.NewServer(rt.Handler())
		resp, err := http.Post(srv.URL+"/submit", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.want || resp.Header.Get("X-Palirria-Node") != tc.node {
			t.Fatalf("status %d from %q (%d-byte body), want %d from %q",
				resp.StatusCode, resp.Header.Get("X-Palirria-Node"), len(body), tc.want, tc.node)
		}
		if rt.FailedOver() == 0 {
			t.Fatal("an oversize reply triggered no failover")
		}
	}
}

func TestRouterFailsOverOn5xxAndTransportError(t *testing.T) {
	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer sick.Close()
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadTS.Close() // transport error: connection refused
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	defer healthy.Close()

	hub := stream.NewHub()
	defer hub.Close()
	sub := hub.Subscribe(stream.SubOptions{Buf: 64, Kinds: []stream.Kind{stream.KindRouted, stream.KindFailover}})
	defer sub.Close()

	p := &scriptedPicker{targets: []PeerStatus{
		peerFor(sick, "sick"), peerFor(deadTS, "dead"), peerFor(healthy, "ok"),
	}}
	rt := testRouter(t, p, hub)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 from the healthy node", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Palirria-Node"); got != "ok" {
		t.Fatalf("served by %q, want ok", got)
	}
	if rt.Routed() != 1 || rt.Retried() != 2 || rt.FailedOver() != 2 {
		t.Fatalf("counters routed=%d retried=%d failedOver=%d",
			rt.Routed(), rt.Retried(), rt.FailedOver())
	}
	// Both failures were reported, the success too.
	if got := p.reports["sick"]; len(got) != 1 || got[0] {
		t.Fatalf("sick reports = %v", got)
	}
	if got := p.reports["dead"]; len(got) != 1 || got[0] {
		t.Fatalf("dead reports = %v", got)
	}
	if got := p.reports["ok"]; len(got) != 1 || !got[0] {
		t.Fatalf("ok reports = %v", got)
	}
	// Event order: failover(sick), failover(dead), routed(ok).
	var seq []string
	for len(seq) < 3 {
		ev := <-sub.Events()
		seq = append(seq, ev.Kind.String()+":"+ev.Node)
	}
	want := "failover:sick,failover:dead,routed:ok"
	if got := strings.Join(seq, ","); got != want {
		t.Fatalf("event sequence = %s, want %s", got, want)
	}
}

func TestRouterReturnsShedAsIs(t *testing.T) {
	// 429 from a shedding node is a valid answer, not a failover trigger.
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shed", http.StatusTooManyRequests)
	}))
	defer shedding.Close()

	p := &scriptedPicker{targets: []PeerStatus{peerFor(shedding, "n1"), peerFor(shedding, "n1")}}
	rt := testRouter(t, p, nil)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want the node's 429 passed through", resp.StatusCode)
	}
	if rt.FailedOver() != 0 {
		t.Fatal("429 triggered a failover")
	}
}

func TestRouterExhaustionIs502(t *testing.T) {
	deadTS := httptest.NewServer(http.NotFoundHandler())
	deadTS.Close()
	p := &scriptedPicker{targets: []PeerStatus{
		peerFor(deadTS, "a"), peerFor(deadTS, "b"), peerFor(deadTS, "c"), peerFor(deadTS, "d"),
	}}
	rt := testRouter(t, p, nil)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
	if !strings.Contains(string(body), "cluster submit failed") {
		t.Fatalf("body = %s", body)
	}
	if rt.Failed() != 1 {
		t.Fatalf("Failed = %d", rt.Failed())
	}
	// Retries bounded: 1 + Retries(2) attempts, never the 4th target.
	if p.next > 3 {
		t.Fatalf("router made %d attempts, want at most 3", p.next)
	}
}

func TestRouterStickyKey(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	}))
	defer backend.Close()
	p := &scriptedPicker{targets: []PeerStatus{
		peerFor(backend, "n1"), peerFor(backend, "n1"), peerFor(backend, "n1"),
	}}
	rt := testRouter(t, p, nil)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	for _, q := range []string{"sticky=batch-9", "count=8", "count=1"} {
		resp, err := http.Post(srv.URL+"/submit?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(p.keys) != 3 {
		t.Fatalf("picker saw %d keys", len(p.keys))
	}
	if p.keys[0] != "batch-9" {
		t.Fatalf("explicit sticky key = %q", p.keys[0])
	}
	if !strings.HasPrefix(p.keys[1], "addr:") {
		t.Fatalf("batch key = %q, want addr-derived", p.keys[1])
	}
	if p.keys[2] != "" {
		t.Fatalf("single submit key = %q, want none", p.keys[2])
	}
}
