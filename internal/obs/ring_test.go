package obs

import (
	"sync"
	"testing"

	"palirria/internal/core"
)

func TestRingBasic(t *testing.T) {
	r := newRing(8, false)
	for i := 0; i < 5; i++ {
		r.Emit(Event{TS: int64(i), Kind: KindSpawn, Worker: 1})
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
	var got []Event
	r.Drain(func(ev Event) { got = append(got, ev) })
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5", len(got))
	}
	for i, ev := range got {
		if ev.TS != int64(i) {
			t.Fatalf("event %d has TS %d", i, ev.TS)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after drain = %d", r.Len())
	}
}

func TestRingDropNewest(t *testing.T) {
	r := newRing(4, false)
	for i := 0; i < 10; i++ {
		r.Emit(Event{TS: int64(i)})
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	var got []Event
	r.Drain(func(ev Event) { got = append(got, ev) })
	// Drop-newest keeps the oldest events.
	if len(got) != 4 || got[0].TS != 0 || got[3].TS != 3 {
		t.Fatalf("kept wrong events: %+v", got)
	}
}

func TestRingOverwrite(t *testing.T) {
	r := newRing(4, true)
	for i := 0; i < 10; i++ {
		r.Emit(Event{TS: int64(i)})
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0 in overwrite mode", r.Dropped())
	}
	var got []Event
	r.Drain(func(ev Event) { got = append(got, ev) })
	// Overwrite keeps the newest events.
	if len(got) != 4 || got[0].TS != 6 || got[3].TS != 9 {
		t.Fatalf("kept wrong events: %+v", got)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	r := newRing(5, false)
	if len(r.buf) != 8 {
		t.Fatalf("capacity = %d, want 8", len(r.buf))
	}
	r = newRing(0, false)
	if len(r.buf) != 2 {
		t.Fatalf("capacity = %d, want 2", len(r.buf))
	}
}

// TestTracerConcurrentStress is the -race stress test of the ISSUE: N
// producers each own a ring and emit while a consumer goroutine drains
// the tracer continuously. Every event that is not reported dropped must
// be observed exactly once, unscrambled.
func TestTracerConcurrentStress(t *testing.T) {
	const (
		workers       = 8
		perWorker     = 20000
		smallRingSize = 256 // force drops to exercise the full protocol
	)
	tr := newTestTracer(smallRingSize)
	rings := make([]*Ring, workers)
	for i := range rings {
		rings[i] = tr.NewRing(false)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	type seen struct {
		sync.Mutex
		byWorker [workers][]int64
	}
	var s seen
	collect := func(d *TraceData) {
		s.Lock()
		defer s.Unlock()
		for _, ev := range d.Events {
			s.byWorker[ev.Worker] = append(s.byWorker[ev.Worker], ev.Arg)
		}
	}

	// Consumer: drain in a tight loop until producers finish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				collect(tr.Drain())
				return
			default:
				collect(tr.Drain())
			}
		}
	}()

	var pwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			r := rings[w]
			for i := 0; i < perWorker; i++ {
				r.Emit(Event{TS: int64(i), Kind: Kind(i % int(NumKinds)),
					Worker: int32(w), Arg: int64(i)})
			}
		}(w)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	var dropped int64
	for _, r := range rings {
		dropped += r.Dropped()
	}
	var received int64
	for w := 0; w < workers; w++ {
		args := s.byWorker[w]
		received += int64(len(args))
		// Per-ring order must be preserved and free of duplicates: args
		// are the emission sequence, so they must be strictly increasing.
		for i := 1; i < len(args); i++ {
			if args[i] <= args[i-1] {
				t.Fatalf("worker %d: out-of-order or duplicated event: %d after %d",
					w, args[i], args[i-1])
			}
		}
	}
	if got, want := received+dropped, int64(workers*perWorker); got != want {
		t.Fatalf("received %d + dropped %d = %d, want %d", received, dropped, got, want)
	}
	if received == 0 {
		t.Fatal("consumer observed no events")
	}
}

// newTestTracer is NewTracer with every ring sized to ringCap events.
func newTestTracer(ringCap int) *Tracer {
	tr := NewTracer()
	tr.ringCap = ringCap
	return tr
}

func TestTracerDrainMerges(t *testing.T) {
	tr := newTestTracer(16)
	a := tr.NewRing(false)
	b := tr.NewRing(false)
	a.Emit(Event{TS: 10, Worker: 0})
	b.Emit(Event{TS: 5, Worker: 1})
	a.Emit(Event{TS: 20, Worker: 0})
	b.Emit(Event{TS: 15, Worker: 1})
	d := tr.Drain()
	if len(d.Events) != 4 {
		t.Fatalf("drained %d events, want 4", len(d.Events))
	}
	for i := 1; i < len(d.Events); i++ {
		if d.Events[i].TS < d.Events[i-1].TS {
			t.Fatalf("events not time-ordered: %+v", d.Events)
		}
	}
}

// TestTracerSnapshots pins a quantum's observation: a quantum and a grant
// event on the ring carrying the filtered desire and the grant, and the
// explanation labelled with the job.
func TestTracerSnapshots(t *testing.T) {
	tr := NewTracer()
	r := tr.NewRing(false)
	tr.Quantum(r, 10, 3, "fib", core.Explanation{Time: 1, Estimator: "palirria", RawDesire: 9, FilteredDesire: 7, Granted: 5})
	tr.Quantum(r, 20, 3, "fib", core.Explanation{Time: 2, Estimator: "palirria"})
	d := tr.Drain()
	if got := d.Snapshots; len(got) != 2 || got[1].Time != 2 || got[0].Job != "fib" || got[0].RawDesire != 9 {
		t.Fatalf("Drain snapshots = %+v", got)
	}
	want := []Event{
		{TS: 10, Kind: KindQuantum, Worker: 3, Peer: NoWorker, Arg: 7, Label: "fib"},
		{TS: 10, Kind: KindGrant, Worker: 3, Peer: NoWorker, Arg: 5, Label: "fib"},
	}
	if len(d.Events) != 4 || d.Events[0] != want[0] || d.Events[1] != want[1] {
		t.Fatalf("Drain events = %+v, want %+v first", d.Events, want)
	}
}

func TestKindStrings(t *testing.T) {
	// The names are wire and CLI vocabulary (Chrome event names,
	// palirria-sim -trace lines): pin every one.
	names := map[Kind]string{
		KindSpawn: "spawn", KindSteal: "steal", KindProbeFail: "probefail",
		KindTaskDone: "done", KindBlock: "block", KindGrant: "grant",
		KindRetire: "retire", KindQuantum: "quantum", KindPark: "park",
	}
	if len(names) != int(NumKinds) {
		t.Fatalf("%d kinds named, NumKinds = %d", len(names), NumKinds)
	}
	for k, want := range names {
		if s := k.String(); s != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", k, s, want)
		}
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Fatalf("unknown kind = %q", s)
	}
}

// TestEventString pins the one-line rendering palirria-sim -trace prints.
func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{TS: 987330, Kind: KindTaskDone, Worker: 12, Peer: NoWorker, Label: "fib(19)"},
			"      987330  done   w12  fib(19)"},
		{Event{TS: 987329, Kind: KindProbeFail, Worker: 14, Peer: 5},
			"      987329  probefail w14  -> w5  "},
		{Event{TS: 42, Kind: KindSteal, Worker: 3, Peer: 20, Label: "sort"},
			"          42  steal  w3   <- w20  sort"},
		{Event{TS: 7, Kind: KindGrant, Worker: NoWorker, Peer: NoWorker, Arg: 12},
			"           7  grant  12 workers"},
		{Event{TS: 7, Kind: KindQuantum, Worker: NoWorker, Peer: NoWorker, Arg: 20},
			"           7  quantum 20 desired"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("%v event renders %q, want %q", c.ev.Kind, got, c.want)
		}
	}
}
