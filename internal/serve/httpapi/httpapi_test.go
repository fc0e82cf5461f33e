package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// startServer serves one pool, "default", on a 4x2 mesh with a 1ms
// quantum; a zero heartbeat keeps the default. Cleanup closes the test
// server, drains the pool and closes the hub.
func startServer(t *testing.T, queueCap int, heartbeat time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	reg, hub := obs.NewRegistry(), stream.NewHub()
	p, err := serve.New(serve.Config{
		Name:       "default",
		Runtime:    wsrt.Config{Mesh: topo.MustMesh(4, 2), Quantum: time.Millisecond, Metrics: reg},
		QueueCap:   queueCap,
		ShedQuanta: 8,
		Metrics:    reg,
		Events:     hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Pools: []*serve.Pool{p}, Hub: hub, Metrics: reg, Heartbeat: heartbeat})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		p.Drain(ctx) //nolint:errcheck // best-effort teardown
		hub.Close()
	})
	return s, ts
}

func TestServerSingleTenant(t *testing.T) {
	s, ts := startServer(t, 16, 0)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", resp, err)
	}
	resp.Body.Close()

	// A small job completes synchronously.
	resp, err = http.Post(ts.URL+"/submit?fanout=8&work=1000", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep submitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Tenant != "default" || rep.Fanout != 8 {
		t.Fatalf("submit = %d %+v", resp.StatusCode, rep)
	}

	// Parameter validation and routing.
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/submit", http.StatusMethodNotAllowed},
		{http.MethodPost, "/submit?fanout=-1", http.StatusBadRequest},
		{http.MethodPost, "/submit?work=abc", http.StatusBadRequest},
		{http.MethodPost, "/submit?tenant=nope", http.StatusNotFound},
		{http.MethodPost, "/submit?count=0", http.StatusBadRequest},
		{http.MethodPost, "/submit?count=abc", http.StatusBadRequest},
		{http.MethodGet, "/drain", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// Status reports the pool; metrics render.
	resp, err = http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Pools) != 1 || st.Pools[0].Name != "default" || st.Pools[0].Completed != 1 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Tenants) != 0 {
		t.Fatalf("single-tenant status must omit tenancy: %+v", st.Tenants)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, `palirria_pool_completed_total{pool="default"} 1`) {
		t.Fatalf("metrics missing completion counter:\n%s", body)
	}

	// Drain: replies a final summary, unblocks the exit channel, and
	// subsequent submissions are refused.
	resp, err = http.Post(ts.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d", resp.StatusCode)
	}
	select {
	case <-s.Drained():
	case <-time.After(5 * time.Second):
		t.Fatal("drain did not signal process exit")
	}
	resp, err = http.Post(ts.URL+"/submit", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", resp.StatusCode)
	}
}

func TestServerBatchSubmit(t *testing.T) {
	_, ts := startServer(t, 16, 0)

	resp, err := http.Post(ts.URL+"/submit?fanout=4&work=500&count=6", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep submitReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch submit = %d", resp.StatusCode)
	}
	if rep.Count != 6 || rep.Completed != 6 || rep.Rejected != 0 {
		t.Fatalf("batch reply = %+v, want count=6 completed=6", rep)
	}

	var st StatusReply
	resp, err = http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Pools[0].Admitted != 6 || st.Pools[0].Completed != 6 {
		t.Fatalf("pool stats after batch = %+v", st.Pools[0])
	}

	resp, err = http.Post(ts.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/submit?count=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch submit after drain = %d, want 503", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// TestServerEventsSSE drives a live SSE subscription end to end: frames
// must be well-formed (id/event/data), carry JSON bodies, and include
// the submitted job's admitted and completed lifecycle events.
func TestServerEventsSSE(t *testing.T) {
	_, ts := startServer(t, 16, 25*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/events?kind=admitted,completed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Submit once the subscription is live.
	go func() {
		r, err := http.Post(ts.URL+"/submit?fanout=4&work=500", "", nil)
		if err == nil {
			r.Body.Close()
		}
	}()

	seen := map[string]bool{}
	var sawHeartbeat bool
	sc := bufio.NewScanner(resp.Body)
	var id, event, data string
	for sc.Scan() && !(seen["admitted"] && seen["completed"] && sawHeartbeat) {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" {
				if id == "" || data == "" {
					t.Fatalf("frame %q missing id or data", event)
				}
				var ev map[string]any
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("data not JSON: %q", data)
				}
				if ev["kind"] != event {
					t.Fatalf("data kind %v != event name %q", ev["kind"], event)
				}
				if event == "admitted" || event == "completed" {
					if ev["job"] != float64(1) {
						t.Fatalf("job id = %v, want 1", ev["job"])
					}
					seen[event] = true
				}
			}
			id, event, data = "", "", ""
		case strings.HasPrefix(line, ": "):
			sawHeartbeat = true
		case strings.HasPrefix(line, "id: "):
			id = line[4:]
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		default:
			t.Fatalf("malformed SSE line %q", line)
		}
	}
	if !seen["admitted"] || !seen["completed"] || !sawHeartbeat {
		t.Fatalf("stream ended early: seen=%v heartbeat=%v (%v)", seen, sawHeartbeat, sc.Err())
	}
}

func TestServerEventsValidation(t *testing.T) {
	_, ts := startServer(t, 16, 0)

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/events?kind=bogus", http.StatusBadRequest},
		{"/events?kind=sched", http.StatusBadRequest},
		{"/events?job=abc", http.StatusBadRequest},
		{"/events?job=0", http.StatusBadRequest},
		{"/events?tenant=nope", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestServerSubmitDAG runs both registered DAG workloads through
// /submit-dag end to end: every node must complete, the reply must count
// them, and the pool ledger must show the whole graph admitted.
func TestServerSubmitDAG(t *testing.T) {
	_, ts := startServer(t, 64, 0) // mapreduce admits 18 nodes as a unit

	wantNodes := map[string]int{"pipeline": 6, "mapreduce": 18}
	total := 0
	for _, name := range []string{"pipeline", "mapreduce"} {
		resp, err := http.Post(ts.URL+"/submit-dag?workload="+name+"&work=500&class=high", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep submitDAGReply
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit-dag %s = %d", name, resp.StatusCode)
		}
		if rep.Workload != name || rep.Nodes != wantNodes[name] ||
			rep.Completed != rep.Nodes || rep.Cancelled != 0 {
			t.Fatalf("submit-dag %s reply = %+v", name, rep)
		}
		total += rep.Nodes
	}

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Pools[0].Admitted != int64(total) || st.Pools[0].Completed != int64(total) {
		t.Fatalf("pool stats after DAGs = %+v, want %d admitted+completed", st.Pools[0], total)
	}
}

func TestServerSubmitDAGValidation(t *testing.T) {
	_, ts := startServer(t, 16, 0)

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/submit-dag", http.StatusMethodNotAllowed},
		{http.MethodPost, "/submit-dag?workload=nope", http.StatusBadRequest},
		{http.MethodPost, "/submit-dag?work=-1", http.StatusBadRequest},
		{http.MethodPost, "/submit-dag?class=urgent", http.StatusBadRequest},
		{http.MethodPost, "/submit-dag?deadline=-5ms", http.StatusBadRequest},
		{http.MethodPost, "/submit-dag?deadline=soon", http.StatusBadRequest},
		{http.MethodPost, "/submit-dag?tenant=nope", http.StatusNotFound},
		// class/deadline are shared with /submit; a batch cannot carry them.
		{http.MethodPost, "/submit?count=2&class=high", http.StatusBadRequest},
		{http.MethodPost, "/submit?count=2&deadline=1s", http.StatusBadRequest},
		{http.MethodPost, "/submit?class=urgent", http.StatusBadRequest},
		{http.MethodPost, "/submit?deadline=0s", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}

	// A generous deadline on a single job is accepted and the job runs.
	resp, err := http.Post(ts.URL+"/submit?fanout=4&work=500&class=normal&deadline=30s", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline submit = %d", resp.StatusCode)
	}

	// Draining refuses whole graphs with 503 like plain submits.
	resp, err = http.Post(ts.URL+"/drain", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/submit-dag", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit-dag after drain = %d, want 503", resp.StatusCode)
	}
}

func TestServerStatusHasAdmitQuantiles(t *testing.T) {
	_, ts := startServer(t, 16, 0)

	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/submit?fanout=4&work=500", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p := st.Pools[0]
	if p.AdmitP50 <= 0 || p.AdmitP99 <= 0 || p.AdmitP50 > p.AdmitP99 {
		t.Fatalf("admit quantiles p50=%g p99=%g", p.AdmitP50, p.AdmitP99)
	}
}

func TestServerClusterDisabled(t *testing.T) {
	_, ts := startServer(t, 16, 0)
	resp, err := http.Get(ts.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/cluster without cluster mode = %d, want 503", resp.StatusCode)
	}
}

// TestServerSubmitDAGExpiredRequest sends /submit-dag on a request whose
// context is already done: the graph is refused at the gate, answered
// 408 as the client's own context, and nothing reaches the pool's books.
func TestServerSubmitDAGExpiredRequest(t *testing.T) {
	s, _ := startServer(t, 16, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/submit-dag?workload=pipeline&work=500", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestTimeout || !strings.Contains(rec.Body.String(), "before admission") {
		t.Fatalf("expired /submit-dag = %d %q, want 408 naming the refusal", rec.Code, rec.Body.String())
	}
	if st := s.cfg.Pools[0].Stats(); st.Admitted != 0 || st.Cancelled != 0 {
		t.Fatalf("expired graph reached the books: admitted %d, cancelled %d", st.Admitted, st.Cancelled)
	}
}
