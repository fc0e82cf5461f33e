package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestConsumeSSE(t *testing.T) {
	in := ": hello\n\n" +
		"id: 1\nevent: admitted\ndata: {\"seq\":1,\"ts_ns\":5,\"kind\":\"admitted\",\"pool\":\"web\",\"job\":1}\n\n" +
		"event: drop\ndata: {\"dropped\":3,\"total\":3}\n\n"
	var frames []sseFrame
	err := consumeSSE(strings.NewReader(in), func(f sseFrame) error {
		frames = append(frames, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 3", len(frames))
	}
	if !frames[0].comment || frames[0].data != "hello" {
		t.Fatalf("comment frame: %+v", frames[0])
	}
	if frames[1].event != "admitted" || frames[1].id != "1" {
		t.Fatalf("event frame: %+v", frames[1])
	}
	if frames[2].event != "drop" {
		t.Fatalf("drop frame: %+v", frames[2])
	}
}

func TestConsumeSSERejectsMalformed(t *testing.T) {
	err := consumeSSE(strings.NewReader("event: x\nwhat is this\n\n"), func(sseFrame) error {
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v, want malformed-line error", err)
	}
}

// stubServe imitates palirria-serve's /events and /status surface.
func stubServe(t *testing.T, frames []string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		fmt.Fprintf(w, ": stub stream\n\n")
		for _, f := range frames {
			fmt.Fprint(w, f)
		}
		fl.Flush()
		<-r.Context().Done() // hold the stream open until the client stops
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"pools":[{"name":"web","admit_p50_seconds":0.001,"admit_p99_seconds":0.01}]}`)
	})
	return httptest.NewServer(mux)
}

func TestWatcherAccumulatesAndPrints(t *testing.T) {
	ev := func(seq int, kind, extra string) string {
		return fmt.Sprintf("id: %d\nevent: %s\ndata: {\"seq\":%d,\"ts_ns\":1,\"kind\":%q,\"pool\":\"web\"%s}\n\n",
			seq, kind, seq, kind, extra)
	}
	ts := stubServe(t, []string{
		ev(1, "admitted", ",\"job\":1"),
		ev(2, "started", ",\"job\":1"),
		ev(3, "completed", ",\"job\":1"),
		ev(4, "shed", ",\"reason\":\"full\""),
		ev(5, "quantum", ",\"raw\":6,\"desire\":5,\"granted\":4,\"capacity\":8"),
		"event: drop\ndata: {\"dropped\":2,\"total\":2}\n\n",
	})
	defer ts.Close()

	var out bytes.Buffer
	w, err := startWatch(ts.URL, "", time.Hour, time.Hour, &out)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		n := w.frames
		w.mu.Unlock()
		if n >= 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d frames consumed", n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.stop(); err != nil {
		t.Fatal(err)
	}
	pw := w.pools["web"]
	if pw == nil || pw.admitted != 1 || pw.completed != 1 || pw.shed != 1 ||
		pw.desire != 5 || pw.granted != 4 || pw.capacity != 8 {
		t.Fatalf("pool counters: %+v", pw)
	}
	if w.drops != 2 {
		t.Fatalf("drops = %d, want 2", w.drops)
	}
	line := out.String()
	if !strings.Contains(line, "final pool=web admitted=1 completed=1 cancelled=0 shed=1 desire=5 allot=4 cap=8 drops=2") {
		t.Fatalf("final table missing:\n%s", line)
	}

	if err := printAdmitQuantiles(ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pool web: admit p50=1ms p99=10ms") {
		t.Fatalf("quantile line missing:\n%s", out.String())
	}
}

func TestWatcherFailsOnKindMismatch(t *testing.T) {
	ts := stubServe(t, []string{
		"id: 1\nevent: completed\ndata: {\"seq\":1,\"ts_ns\":1,\"kind\":\"admitted\",\"pool\":\"web\",\"job\":1}\n\n",
	})
	defer ts.Close()
	var out bytes.Buffer
	w, err := startWatch(ts.URL, "", time.Hour, time.Hour, &out)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		w.mu.Lock()
		bad := w.err != nil
		w.mu.Unlock()
		if bad || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.stop(); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("err = %v, want kind-mismatch error", err)
	}
}

// TestWatcherFailsOnSilentStream points the watcher at an /events handler
// that answers the subscription and then goes completely mute — no frames,
// no comment heartbeats. The watchdog must tear the stream down and stop
// must report the stall (palirria-load exits non-zero on it).
func TestWatcherFailsOnSilentStream(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.(http.Flusher).Flush()
		<-r.Context().Done() // stalled: never writes a byte again
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	w, err := startWatch(ts.URL, "", time.Hour, 150*time.Millisecond, &out)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.done:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired on a silent stream")
	}
	if err := w.stop(); err == nil || !strings.Contains(err.Error(), "silent") {
		t.Fatalf("err = %v, want silent-stream watch-timeout error", err)
	}
}

// TestWatcherHeartbeatsKeepWatchdogQuiet pins the liveness definition:
// comment heartbeats alone — no real events — must keep the watchdog from
// firing for well past the timeout.
func TestWatcherHeartbeatsKeepWatchdogQuiet(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		fl.Flush()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprint(w, ": heartbeat\n\n")
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var out bytes.Buffer
	w, err := startWatch(ts.URL, "", time.Hour, 750*time.Millisecond, &out)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.done:
		t.Fatal("watchdog killed a stream that was heartbeating")
	case <-time.After(2 * time.Second):
	}
	w.mu.Lock()
	stallErr := w.err
	w.mu.Unlock()
	if stallErr != nil {
		t.Fatalf("watchdog recorded %v against a live stream", stallErr)
	}
	// Heartbeats are liveness, not events: stop still reports the empty run.
	if err := w.stop(); err == nil || !strings.Contains(err.Error(), "no events") {
		t.Fatalf("err = %v, want no-events error", err)
	}
}

// sseLineMax is consumeSSE's scanner bound: a line that does not fit in
// it fails the stream.
const sseLineMax = 1024 * 1024

// FuzzConsumeSSE feeds arbitrary bytes through the -watch parser and every
// frame it yields through watcher.handle. Nothing may panic. The parser
// must return nil exactly when every line fits the scanner bound and is
// blank, a comment, or an id/event/data field; a line of 1 MiB or more is
// an error, not a hang. handle's own verdicts (bad JSON, a name that does
// not match the kind) are not the parser's, so every frame is fed to it
// and the parse goes on.
func FuzzConsumeSSE(f *testing.F) {
	f.Add([]byte(": hello\n\n" +
		"id: 1\nevent: admitted\ndata: {\"seq\":1,\"ts_ns\":5,\"kind\":\"admitted\",\"pool\":\"web\",\"job\":1}\n\n" +
		"event: drop\ndata: {\"dropped\":3,\"total\":3}\n\n"))
	f.Add([]byte("id: 5\nevent: quantum\ndata: {\"seq\":5,\"ts_ns\":1,\"kind\":\"quantum\",\"pool\":\"web\",\"raw\":6,\"desire\":5,\"granted\":4,\"capacity\":8}\r\n\r\n"))
	f.Add([]byte("event: x\nwhat is this\n\n"))
	f.Add([]byte("data: " + strings.Repeat("x", sseLineMax) + "\n\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		w := &watcher{pools: map[string]*poolWatch{}}
		err := consumeSSE(bytes.NewReader(in), func(fr sseFrame) error {
			_ = w.handle(fr)
			return nil
		})
		wellFormed, long := true, false
		lines := bytes.Split(in, []byte("\n"))
		if len(lines[len(lines)-1]) == 0 {
			lines = lines[:len(lines)-1] // the final newline ends the last line
		}
		for _, l := range lines {
			if len(l) >= sseLineMax {
				long = true
			}
			l = bytes.TrimSuffix(l, []byte("\r"))
			s := string(l)
			if s != "" && !strings.HasPrefix(s, ":") && !strings.HasPrefix(s, "id: ") &&
				!strings.HasPrefix(s, "event: ") && !strings.HasPrefix(s, "data: ") {
				wellFormed = false
			}
		}
		switch {
		case long && err == nil:
			t.Fatal("a line of 1 MiB or more was accepted")
		case !long && wellFormed && err != nil:
			t.Fatalf("well-formed stream rejected: %v", err)
		case !wellFormed && err == nil:
			t.Fatal("a malformed line was accepted")
		}
	})
}
