package stream

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %s -> %v", k, b, back)
		}
		if pk, ok := ParseKind(k.String()); !ok || pk != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), pk, ok)
		}
	}
	var k Kind
	if err := json.Unmarshal([]byte(`"nope"`), &k); err == nil {
		t.Fatal("unknown kind name unmarshalled without error")
	}
}

func TestEventJSONOmitsZeroFields(t *testing.T) {
	b, err := json.Marshal(Event{Seq: 1, TS: 2, Kind: KindShed, Reason: "full"})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":1,"ts_ns":2,"kind":"shed","reason":"full"}`
	if string(b) != want {
		t.Fatalf("got %s want %s", b, want)
	}
}

func TestHubDeliversInOrder(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 16})
	for i := 0; i < 5; i++ {
		h.Publish(Event{Kind: KindAdmitted, Job: uint64(i + 1)})
	}
	sub.Close()
	var jobs []uint64
	for ev := range sub.Events() {
		jobs = append(jobs, ev.Job)
		if ev.Seq == 0 {
			t.Fatal("event without sequence number")
		}
		if ev.TS == 0 {
			t.Fatal("event without timestamp")
		}
	}
	if len(jobs) != 5 {
		t.Fatalf("got %d events, want 5", len(jobs))
	}
	for i, j := range jobs {
		if j != uint64(i+1) {
			t.Fatalf("out of order: %v", jobs)
		}
	}
	if sub.Delivered() != 5 || sub.Dropped() != 0 {
		t.Fatalf("delivered=%d dropped=%d", sub.Delivered(), sub.Dropped())
	}
}

func TestHubFilters(t *testing.T) {
	h := NewHub()
	byKind := h.Subscribe(SubOptions{Buf: 16, Kinds: []Kind{KindCompleted}})
	byJob := h.Subscribe(SubOptions{Buf: 16, Job: 7})
	byPool := h.Subscribe(SubOptions{Buf: 16, Pool: "web"})

	h.Publish(Event{Kind: KindAdmitted, Job: 7, Pool: "web"})
	h.Publish(Event{Kind: KindCompleted, Job: 8, Pool: "batch"})
	h.Publish(Event{Kind: KindQuantum, Pool: "web"})

	byKind.Close()
	byJob.Close()
	byPool.Close()

	count := func(s *Sub) int {
		n := 0
		for range s.Events() {
			n++
		}
		return n
	}
	if n := count(byKind); n != 1 {
		t.Fatalf("kind filter delivered %d, want 1", n)
	}
	if n := count(byJob); n != 1 {
		t.Fatalf("job filter delivered %d, want 1 (job-less events excluded)", n)
	}
	if n := count(byPool); n != 2 {
		t.Fatalf("pool filter delivered %d, want 2", n)
	}
}

func TestHubDropsExactlyAtFullBuffer(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 4})
	const total = 100
	for i := 0; i < total; i++ {
		h.Publish(Event{Kind: KindAdmitted, Job: uint64(i + 1)})
	}
	if got := sub.Delivered() + sub.Dropped(); got != total {
		t.Fatalf("delivered+dropped = %d, want %d", got, total)
	}
	if sub.Delivered() != 4 {
		t.Fatalf("delivered = %d, want buffer size 4", sub.Delivered())
	}
	if h.DroppedTotal() != sub.Dropped() {
		t.Fatalf("hub dropped %d, sub dropped %d", h.DroppedTotal(), sub.Dropped())
	}
	if h.Published() != total {
		t.Fatalf("published = %d, want %d", h.Published(), total)
	}
	sub.Close()
}

// TestHubAccountingUnderConcurrency is the exactness contract under
// contention: across concurrent publishers and a concurrently-reading
// subscriber, every matching event is either delivered or counted
// dropped — never lost, never double-counted.
func TestHubAccountingUnderConcurrency(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 8})
	var read int64
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for range sub.Events() {
			read++
		}
	}()

	const publishers, perPub = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				h.Publish(Event{Kind: KindQuantum})
			}
		}()
	}
	wg.Wait()
	sub.Close()
	rd.Wait()

	const total = publishers * perPub
	if got := sub.Delivered() + sub.Dropped(); got != total {
		t.Fatalf("delivered+dropped = %d, want %d", got, total)
	}
	if read != sub.Delivered() {
		t.Fatalf("reader saw %d, delivered %d", read, sub.Delivered())
	}
}

func TestSubCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 4})
	h.Publish(Event{Kind: KindAdmitted, Job: 1})
	sub.Close()
	sub.Close() // no panic
	before, beforeDrop := sub.Delivered(), sub.Dropped()
	h.Publish(Event{Kind: KindAdmitted, Job: 2})
	if sub.Delivered() != before || sub.Dropped() != beforeDrop {
		t.Fatal("counters moved after Close")
	}
	if n := len(sub.Events()); n != 1 {
		t.Fatalf("%d buffered events, want 1 (pre-close event readable)", n)
	}
	if h.Subscribers() != 0 {
		t.Fatalf("subscribers = %d after close", h.Subscribers())
	}
}

func TestHubCloseThenSubClose(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(SubOptions{Buf: 4})
	h.Close()
	sub.Close() // must not double-close the channel
	if _, ok := <-sub.Events(); ok {
		t.Fatal("event delivered after hub close")
	}
	late := h.Subscribe(SubOptions{Buf: 4})
	if _, ok := <-late.Events(); ok {
		t.Fatal("subscribe after close returned an open channel")
	}
	h.Publish(Event{Kind: KindAdmitted}) // counts, delivers nowhere
	if h.Published() != 1 {
		t.Fatalf("published = %d", h.Published())
	}
}

// TestPublishCloseRace hammers Publish against subscriber churn; under
// -race this is the send-on-closed-channel guard.
func TestPublishCloseRace(t *testing.T) {
	h := NewHub()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				h.Publish(Event{Kind: KindQuantum})
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		sub := h.Subscribe(SubOptions{Buf: 1})
		select {
		case <-sub.Events():
		case <-done:
		}
		sub.Close()
		for range sub.Events() {
		}
	}
}
