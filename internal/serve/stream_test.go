package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// TestPoolStreamsJobLifecycle checks that every admitted job yields its
// admitted/started/completed triple with a consistent job id, and that
// all terminal events are on the hub before Drain returns.
func TestPoolStreamsJobLifecycle(t *testing.T) {
	hub := stream.NewHub()
	sub := hub.Subscribe(stream.SubOptions{Buf: 4096})
	p := quietPool(t, Config{Name: "web", Events: hub})

	const jobs = 20
	for i := 0; i < jobs; i++ {
		if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {
			c.Spawn(func(cc *wsrt.Ctx) {})
			c.SyncAll()
		}); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, p)
	sub.Close()

	perJob := map[uint64]map[stream.Kind]int{}
	for ev := range sub.Events() {
		if ev.Pool != "web" {
			t.Fatalf("event with wrong pool label: %+v", ev)
		}
		if ev.Job == 0 {
			continue // quantum events
		}
		if perJob[ev.Job] == nil {
			perJob[ev.Job] = map[stream.Kind]int{}
		}
		perJob[ev.Job][ev.Kind]++
	}
	if len(perJob) != jobs {
		t.Fatalf("saw %d distinct jobs, want %d", len(perJob), jobs)
	}
	for id, kinds := range perJob {
		if kinds[stream.KindAdmitted] != 1 || kinds[stream.KindStarted] != 1 ||
			kinds[stream.KindCompleted] != 1 || kinds[stream.KindCancelled] != 0 {
			t.Fatalf("job %d lifecycle events: %v", id, kinds)
		}
	}
}

func TestPoolStreamsShedAndQuantum(t *testing.T) {
	hub := stream.NewHub()
	sub := hub.Subscribe(stream.SubOptions{Buf: 256,
		Kinds: []stream.Kind{stream.KindShed, stream.KindQuantum}})
	p := quietPool(t, Config{Name: "web", QueueCap: 2, ShedQuanta: 2, Events: hub})

	// Fill the queue with blocked jobs, then overflow it.
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(c *wsrt.Ctx) { <-block }) //nolint:errcheck
		}()
	}
	waitUntil(t, func() bool { return p.Stats().Running == 2 })
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); err != ErrQueueFull {
		t.Fatalf("overflow submit: %v", err)
	}
	// Arm the shed latch via deterministic quantum taps.
	for i := 0; i < 2; i++ {
		p.noteQuantum(metrics.Decision{Raw: 9, Desired: 8, Granted: 4})
	}
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); err != ErrOverloaded {
		t.Fatalf("shed submit: %v", err)
	}
	close(block)
	wg.Wait()
	drain(t, p)
	sub.Close()

	var full, shed, quanta int
	for ev := range sub.Events() {
		switch {
		case ev.Kind == stream.KindShed && ev.Reason == "full":
			full++
		case ev.Kind == stream.KindShed && ev.Reason == "shed":
			shed++
		case ev.Kind == stream.KindQuantum:
			quanta++
			if ev.Raw != 9 || ev.Desire != 8 || ev.Granted != 4 || ev.Capacity != 8 {
				t.Fatalf("quantum payload: %+v", ev)
			}
		}
	}
	if full != 1 || shed != 1 || quanta != 2 {
		t.Fatalf("full=%d shed=%d quanta=%d, want 1/1/2", full, shed, quanta)
	}
}

// TestStreamQuantumCapacityIsPoolCapacity holds a live pool's quantum
// events to the capacity Pool.Capacity reports, under a worker cap below
// the mesh.
func TestStreamQuantumCapacityIsPoolCapacity(t *testing.T) {
	hub := stream.NewHub()
	p := quietPool(t, Config{Name: "web", Events: hub,
		Runtime: wsrt.Config{Quantum: time.Millisecond}})
	p.rt.SetMaxWorkers(3)
	want := p.Capacity()
	if want >= 8 {
		t.Fatalf("capped capacity = %d, want below the 4x2 mesh", want)
	}
	// A quantum in flight across the cap change may publish the old
	// capacity once; every event after it must read the capped one.
	sub := hub.Subscribe(stream.SubOptions{Buf: 256, Kinds: []stream.Kind{stream.KindQuantum}})
	<-sub.Events()
	n := 0
	for ev := range sub.Events() {
		if ev.Capacity != want {
			t.Fatalf("quantum event capacity = %d, want Pool.Capacity() = %d", ev.Capacity, want)
		}
		if n++; n == 5 {
			break
		}
	}
	drain(t, p)
	sub.Close()
}

// TestPoolEventsCarryWallTime requires every event a live pool puts on its
// hub — lifecycle and per-quantum alike — to be stamped with wall time
// inside the test's own window, so a consumer can order the log against
// other clocks.
func TestPoolEventsCarryWallTime(t *testing.T) {
	hub := stream.NewHub()
	sub := hub.Subscribe(stream.SubOptions{Buf: 1 << 14})
	t0 := time.Now()
	p := quietPool(t, Config{Name: "web", Events: hub,
		Runtime: wsrt.Config{Quantum: time.Millisecond}})
	for i := 0; i < 20; i++ {
		if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {
			c.Spawn(func(cc *wsrt.Ctx) {})
			c.SyncAll()
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	drain(t, p)
	hub.Close()
	t1 := time.Now()

	n := 0
	for ev := range sub.Events() {
		n++
		if ev.TS < t0.UnixNano() || ev.TS > t1.UnixNano() {
			t.Errorf("%s event (detail %q) stamped %d, outside [%d, %d]",
				ev.Kind, ev.Detail, ev.TS, t0.UnixNano(), t1.UnixNano())
		}
	}
	if n == 0 || sub.Dropped() != 0 {
		t.Fatalf("saw %d events, dropped %d", n, sub.Dropped())
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWedgedSubscriberDoesNotBlockSubmit is the backpressure contract: a
// subscriber that never reads must cost Submit nothing beyond a failed
// non-blocking send, its unread events must be counted exactly, and the
// admission latency histogram must stay sane. Run under -race in CI.
func TestWedgedSubscriberDoesNotBlockSubmit(t *testing.T) {
	hub := stream.NewHub()
	// Buf 1 and never read: wedged from the second event on.
	wedged := hub.Subscribe(stream.SubOptions{Buf: 1})
	reg := obs.NewRegistry()
	p := quietPool(t, Config{
		Name:    "web",
		Metrics: reg,
		Events:  hub,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(4, 2)},
	})

	const jobs = 200
	start := time.Now()
	for i := 0; i < jobs; i++ {
		if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	drain(t, p)

	// Submit throughput with a wedged subscriber: generously bounded, the
	// point is "not blocked until the subscriber reads" (which is never).
	if avg := elapsed / jobs; avg > 100*time.Millisecond {
		t.Fatalf("average submit+complete %v, wedged subscriber is backpressuring", avg)
	}
	st := p.Stats()
	if st.Completed != jobs {
		t.Fatalf("completed = %d, want %d", st.Completed, jobs)
	}
	if st.AdmitP99 <= 0 || st.AdmitP99 > 10 {
		t.Fatalf("admission p99 = %gs, want (0, 10s]", st.AdmitP99)
	}
	if st.AdmitP50 > st.AdmitP99 {
		t.Fatalf("p50 %g > p99 %g", st.AdmitP50, st.AdmitP99)
	}

	// Exact accounting: everything published is either in the wedged
	// buffer or counted dropped. The hub is quiescent after Drain (all
	// terminal events precede the drain's return).
	if got := wedged.Delivered() + wedged.Dropped(); got != hub.Published() {
		t.Fatalf("delivered+dropped = %d, published = %d", got, hub.Published())
	}
	if wedged.Delivered() != 1 {
		t.Fatalf("delivered = %d, want exactly the buffer capacity 1", wedged.Delivered())
	}
	if wedged.Dropped() < jobs {
		t.Fatalf("dropped = %d, want >= %d", wedged.Dropped(), jobs)
	}
	wedged.Close()
}
