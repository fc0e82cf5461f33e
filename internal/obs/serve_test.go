package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("palirria_tasks_total", "Tasks.", func() float64 { return 7 })

	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "palirria_tasks_total 7") {
		t.Fatalf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !json.Valid([]byte(body)) {
		t.Fatalf("/debug/vars: code=%d, valid JSON=%v", code, json.Valid([]byte(body)))
	} else if !strings.Contains(body, `"memstats"`) {
		t.Fatalf("/debug/vars missing Go's runtime expvars: %q", body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code=%d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	if code, _ := get("/nonexistent"); code != 404 {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
	if !strings.HasPrefix(s.URL(), "http://") {
		t.Fatalf("URL = %q", s.URL())
	}
}
