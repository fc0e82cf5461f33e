package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRunCustomGrid(t *testing.T) {
	if err := run("8x4", 20, 2, "0,1", false); err != nil {
		t.Fatal(err)
	}
	if err := run("4x4x4", 21, 2, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunSeries(t *testing.T) {
	if err := run("8x6", 28, 0, "0,1,2", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadInput(t *testing.T) {
	if err := run("axb", 0, 1, "", false); err == nil {
		t.Fatal("bad dims must fail")
	}
	if err := run("8x4", 20, 1, "x", false); err == nil {
		t.Fatal("bad reserved list must fail")
	}
	if err := run("8x4", 99, 1, "", false); err == nil {
		t.Fatal("invalid source must fail")
	}
	// The default -reserved 0,1 names core 1, which a one-core mesh lacks.
	if err := run("1", 0, 1, "0,1", true); err == nil || !strings.Contains(err.Error(), "reserved core 1") {
		t.Fatalf("reserving a core off the mesh must fail with a flag error, got %v", err)
	}
}

// TestRunCluster renders a gossip view table from a stub /cluster
// endpoint: every peer row present, the self row starred.
func TestRunCluster(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"self":{"id":"router"},"rounds":17,"peers":[
			{"id":"router","role":"router","state":"alive","self":true},
			{"id":"n1","role":"serve","state":"alive","desire":2,"allotment":2,"spare":6,"queued":3,"admit_p99_seconds":0.002},
			{"id":"n2","role":"serve","state":"suspect","silent_ms":450}
		]}`))
	}))
	defer ts.Close()

	var buf bytes.Buffer
	if err := runCluster(ts.URL, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 members", "17 gossip rounds", "router *", "n1", "suspect", "2ms", "450ms",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunClusterUnreachable(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	if err := runCluster(ts.URL, io.Discard); err == nil {
		t.Fatal("404 /cluster must fail")
	}
	ts.Close()
	if err := runCluster(ts.URL, io.Discard); err == nil {
		t.Fatal("refused connection must fail")
	}
}
