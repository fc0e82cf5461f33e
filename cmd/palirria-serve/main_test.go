package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"palirria/internal/serve/httpapi"
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

func TestServerMultiTenant(t *testing.T) {
	opts := testOptions()
	opts.tenants = "web, batch,web" // duplicate and whitespace are cleaned
	s, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.api.Handler())
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
	var st httpapi.StatusReply
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
	ts := httptest.NewServer(s.api.Handler())
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

// TestServerMeshSpec: a malformed -mesh, or -machine with several
// tenants, fails at startup.
func TestServerMeshSpec(t *testing.T) {
	for _, bad := range []func(*options){
		func(o *options) { o.mesh = "axb" },
		func(o *options) { o.tenants, o.machine = "web,batch", "8x0" },
	} {
		opts := testOptions()
		bad(&opts)
		if s, err := newServer(opts); err == nil {
			s.close()
			t.Errorf("mesh %q / machine %q accepted, want a startup error", opts.mesh, opts.machine)
		}
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
		var rep httpapi.StatusReply
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
