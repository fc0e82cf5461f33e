package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWriteJSONLWritesEveryEventInOrder: N published events come out as N
// lines in seq order, each decoding back to the event as published.
func TestWriteJSONLWritesEveryEventInOrder(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 64})
	const n = 50
	want := make([]Event, n)
	for i := range want {
		want[i] = Event{Seq: uint64(i + 1), TS: int64(1000 + i), Kind: KindAdmitted,
			Pool: "web", Job: uint64(i + 1), Detail: "low", Arg: int64(i % 3)}
		h.Publish(want[i])
	}
	h.Close()
	var buf bytes.Buffer
	if err := WriteJSONL(sub, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("got %d lines, want %d", len(lines), n)
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d not JSON: %q", i, line)
		}
		if got != want[i] {
			t.Fatalf("line %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// failWriter blocks its first Write until released, then fails it.
type failWriter struct {
	entered, release chan struct{}
	err              error
}

func (w *failWriter) Write([]byte) (int, error) {
	close(w.entered)
	<-w.release
	return 0, w.err
}

// TestWriteJSONLWriteErrorClosesSub: a log stuck in a write that then
// fails never holds up Publish, every event it misses meanwhile is a
// counted drop, and the write error comes back with the subscription
// closed.
func TestWriteJSONLWriteErrorClosesSub(t *testing.T) {
	h := NewHub()
	const buf = 8
	sub := h.Subscribe(SubOptions{Buf: buf})
	w := &failWriter{entered: make(chan struct{}), release: make(chan struct{}),
		err: errors.New("disk full")}
	done := make(chan error, 1)
	go func() { done <- WriteJSONL(sub, w) }()

	h.Publish(Event{Kind: KindAdmitted, Job: 1})
	<-w.entered // the writer holds event 1 and is stuck flushing it
	const later = 10_000
	for i := 0; i < later; i++ {
		h.Publish(Event{Kind: KindCompleted, Job: uint64(i + 2)})
	}
	if got := h.DroppedTotal(); got != later-buf {
		t.Fatalf("dropped = %d, want %d", got, later-buf)
	}
	close(w.release)
	if err := <-done; !errors.Is(err, w.err) {
		t.Fatalf("WriteJSONL = %v, want %v", err, w.err)
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after a write error, want 0", h.Subscribers())
	}
}

// syncBuffer is a bytes.Buffer safe to read while WriteJSONL writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) lines() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Count(b.buf.String(), "\n")
}

// TestWriteJSONLFlushesWhenIdle: once the subscription has drained, every
// delivered event is in the underlying writer while the hub is still
// open — a quiet stream is not held back in the buffer until close.
func TestWriteJSONLFlushesWhenIdle(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.Subscribe(SubOptions{Buf: 256})
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- WriteJSONL(sub, &out) }()

	const k = 20
	for i := 0; i < k; i++ {
		h.Publish(Event{Kind: KindStarted, Job: uint64(i + 1)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for sub.Delivered() != k || len(sub.Events()) != 0 || out.lines() != k {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d, buffered %d, written %d lines; want %d written before close",
				sub.Delivered(), len(sub.Events()), out.lines(), k)
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
