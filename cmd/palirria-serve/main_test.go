package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testOptions() options {
	return options{
		mesh:        "4x2",
		tenants:     "default",
		machine:     "4x4",
		quantum:     time.Millisecond,
		rearbitrate: 5 * time.Millisecond,
		queueCap:    16,
		shedQuanta:  8,
	}
}

func TestParseMesh(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		ok   bool
	}{
		{"4x4", []int{4, 4}, true},
		{"8x4x2", []int{8, 4, 2}, true},
		{"16", []int{16}, true},
		{" 4X4 ", []int{4, 4}, true},
		{"", nil, false},
		{"4x0", nil, false},
		{"axb", nil, false},
		{"1x2x3x4", nil, false},
	} {
		got, err := parseMesh(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseMesh(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseMesh(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseMesh(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestServerSingleTenant(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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
	var st statusReply
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
	case <-s.drained:
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
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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

	var st statusReply
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

func TestServerMultiTenant(t *testing.T) {
	opts := testOptions()
	opts.tenants = "web, batch,web" // duplicate and whitespace are cleaned
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	for _, tenant := range []string{"web", "batch"} {
		resp, err := http.Post(ts.URL+"/submit?tenant="+tenant+"&fanout=4&work=500", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %s = %d", tenant, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st statusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Pools) != 2 || len(st.Tenants) != 2 {
		t.Fatalf("status = %+v", st)
	}
	total := st.FreeCores
	for _, tn := range st.Tenants {
		if tn.Share < 1 {
			t.Fatalf("tenant %q has no share", tn.Name)
		}
		total += tn.Share
	}
	if total != 16 { // 4x4 machine
		t.Fatalf("shares + free = %d, want 16", total)
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
	opts := testOptions()
	opts.heartbeat = 25 * time.Millisecond
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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

// TestServerJSONLSink runs the full path flag -> hub subscription ->
// WriteJSONL -> file: after a submit and close, the file holds the
// lifecycle events.
func TestServerJSONLSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	opts := testOptions()
	opts.sink = "jsonl:" + path
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	resp, err := http.Post(ts.URL+"/submit?fanout=4&work=500", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	s.close() // waits for the event log

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var admitted, completed bool
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sink line not JSON: %q", line)
		}
		switch ev["kind"] {
		case "admitted":
			admitted = true
		case "completed":
			completed = true
		}
	}
	if !admitted || !completed {
		t.Fatalf("sink file missing lifecycle events:\n%s", b)
	}
}

// TestServerSinkSpec: -sink takes jsonl:- or jsonl:PATH; any other scheme
// fails at startup rather than silently logging nothing.
func TestServerSinkSpec(t *testing.T) {
	for _, spec := range []string{"prom:http://127.0.0.1:9/x", "ftp:thing", "bogus",
		"jsonl:" + filepath.Join(t.TempDir(), "missing", "events.jsonl")} {
		opts := testOptions()
		opts.sink = spec
		if s, err := newServer(opts); err == nil {
			s.close()
			t.Errorf("-sink %q accepted, want a startup error", spec)
		}
	}
}

// TestServerSubmitDAG runs both registered DAG workloads through
// /submit-dag end to end: every node must complete, the reply must count
// them, and the pool ledger must show the whole graph admitted.
func TestServerSubmitDAG(t *testing.T) {
	opts := testOptions()
	opts.queueCap = 64 // mapreduce admits 18 nodes as a unit
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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
	var st statusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Pools[0].Admitted != int64(total) || st.Pools[0].Completed != int64(total) {
		t.Fatalf("pool stats after DAGs = %+v, want %d admitted+completed", st.Pools[0], total)
	}
}

func TestServerSubmitDAGValidation(t *testing.T) {
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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
	s, err := newServer(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

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
	var st statusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p := st.Pools[0]
	if p.AdmitP50 <= 0 || p.AdmitP99 <= 0 || p.AdmitP50 > p.AdmitP99 {
		t.Fatalf("admit quantiles p50=%g p99=%g", p.AdmitP50, p.AdmitP99)
	}
}

// TestDrainReplyIsComplete is the regression test for the truncated
// /drain reply: the daemon used to close its listener as soon as the
// handler had written the reply, and about one in ten reached the client
// as EOF. Every start/drain cycle must deliver the whole JSON ledger and
// serveUntilDrained must return on its own.
func TestDrainReplyIsComplete(t *testing.T) {
	for i := 0; i < 30; i++ {
		s, err := newServer(testOptions())
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		stopped := make(chan struct{})
		go func() {
			s.serveUntilDrained(lis)
			close(stopped)
		}()
		resp, err := http.Post("http://"+lis.Addr().String()+"/drain", "application/json", nil)
		if err != nil {
			t.Fatalf("cycle %d: POST /drain: %v", i, err)
		}
		var rep statusReply
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil || len(rep.Pools) != 1 {
			t.Fatalf("cycle %d: /drain reply cut off: err=%v pools=%d", i, err, len(rep.Pools))
		}
		select {
		case <-stopped:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: server did not stop after /drain", i)
		}
		s.close()
	}
}
