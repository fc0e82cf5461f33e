package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"palirria/internal/obs/stream"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// TestSubmitDAGPipelineOrder runs a four-stage pipeline and checks the
// stages execute strictly in dependency order with every node completing.
func TestSubmitDAGPipelineOrder(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 16})
	var mu sync.Mutex
	var order []int
	stage := func(i int) wsrt.Func {
		return func(c *wsrt.Ctx) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}
	}
	nodes := []DAGNode{
		{Fn: stage(0)},
		{Fn: stage(1), Deps: []int{0}},
		{Fn: stage(2), Deps: []int{1}},
		{Fn: stage(3), Deps: []int{2}},
	}
	errs, err := p.SubmitDAG(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 {
		t.Fatalf("ran %d stages, want 4: %v", len(order), order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("stage order = %v, want strictly increasing", order)
		}
	}
	st := p.Stats()
	if st.Admitted != 4 || st.Completed != 4 || st.Cancelled != 0 {
		t.Fatalf("stats = admitted %d / completed %d / cancelled %d, want 4/4/0",
			st.Admitted, st.Completed, st.Cancelled)
	}
	drain(t, p)
}

// TestSubmitDAGMapReduce fans a root out to mappers and joins them in a
// reducer: the reducer must observe every mapper's contribution.
func TestSubmitDAGMapReduce(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 16})
	const mappers = 6
	var mu sync.Mutex
	mapped := 0
	reduced := -1
	nodes := make([]DAGNode, 0, mappers+2)
	nodes = append(nodes, DAGNode{Fn: func(c *wsrt.Ctx) {}})
	deps := make([]int, 0, mappers)
	for m := 0; m < mappers; m++ {
		nodes = append(nodes, DAGNode{Deps: []int{0}, Fn: func(c *wsrt.Ctx) {
			mu.Lock()
			mapped++
			mu.Unlock()
		}})
		deps = append(deps, m+1)
	}
	nodes = append(nodes, DAGNode{Deps: deps, Class: ClassHigh, Fn: func(c *wsrt.Ctx) {
		mu.Lock()
		reduced = mapped
		mu.Unlock()
	}})
	errs, err := p.SubmitDAG(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", i, e)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if reduced != mappers {
		t.Fatalf("reducer saw %d mapped, want %d", reduced, mappers)
	}
	st := p.Stats()
	if st.ByClass[ClassHigh].Completed != 1 || st.ByClass[ClassLow].Completed != int64(mappers+1) {
		t.Fatalf("per-class completions = %+v", st.ByClass)
	}
	drain(t, p)
}

// TestSubmitDAGInvalid rejects structural problems — cycles, self-loops,
// out-of-range dependencies — with ErrBadDAG and admits nothing.
func TestSubmitDAGInvalid(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 16})
	noop := func(c *wsrt.Ctx) {}
	cases := map[string][]DAGNode{
		"cycle":        {{Fn: noop, Deps: []int{1}}, {Fn: noop, Deps: []int{0}}},
		"self_loop":    {{Fn: noop, Deps: []int{0}}},
		"out_of_range": {{Fn: noop, Deps: []int{7}}},
		"negative":     {{Fn: noop, Deps: []int{-1}}},
	}
	for name, nodes := range cases {
		errs, err := p.SubmitDAG(context.Background(), nodes)
		if !errors.Is(err, ErrBadDAG) || errs != nil {
			t.Fatalf("%s: (%v, %v), want (nil, ErrBadDAG)", name, errs, err)
		}
	}
	if st := p.Stats(); st.Admitted != 0 || st.InFlight != 0 {
		t.Fatalf("invalid graphs admitted work: %+v", st)
	}
	// An empty graph is trivially complete.
	if errs, err := p.SubmitDAG(context.Background(), nil); err != nil || errs != nil {
		t.Fatalf("empty graph: (%v, %v), want (nil, nil)", errs, err)
	}
	drain(t, p)
}

// TestSubmitDAGAllOrNothingSlots requires queue slots for the whole graph
// up front: a graph larger than the free admission queue rejects every
// node with ErrQueueFull and leaks no slot.
func TestSubmitDAGAllOrNothingSlots(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 2,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	noop := func(c *wsrt.Ctx) {}
	nodes := []DAGNode{{Fn: noop}, {Fn: noop, Deps: []int{0}}, {Fn: noop, Deps: []int{1}}}
	errs, err := p.SubmitDAG(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrQueueFull) {
			t.Fatalf("node %d: %v, want ErrQueueFull", i, e)
		}
	}
	st := p.Stats()
	if st.Admitted != 0 || st.RejectedFull != 3 || p.inflight.Load() != 0 {
		t.Fatalf("all-or-nothing broken: admitted %d, rejected_full %d, held slots %d",
			st.Admitted, st.RejectedFull, p.inflight.Load())
	}
	// A graph that fits admits normally afterwards.
	errs, err = p.SubmitDAG(context.Background(), nodes[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("follow-up node %d: %v", i, e)
		}
	}
	drain(t, p)
}

// TestSubmitDAGCancelPropagation cancels the submission context while the
// root holds the only workers: the queued descendants are skipped, their
// cancellations propagate transitively, and the conservation identity
// still holds at drain — every admitted node is exactly one of completed
// or cancelled.
func TestSubmitDAGCancelPropagation(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 16,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	gate := make(chan struct{})
	rootStarted := make(chan struct{})
	nodes := []DAGNode{
		{Fn: func(c *wsrt.Ctx) { close(rootStarted); <-gate }},
		{Deps: []int{0}, Fn: func(c *wsrt.Ctx) {}},
		{Deps: []int{1}, Fn: func(c *wsrt.Ctx) {}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	errsCh := make(chan []error, 1)
	go func() {
		errs, err := p.SubmitDAG(ctx, nodes)
		if err != nil {
			t.Errorf("SubmitDAG: %v", err)
		}
		errsCh <- errs
	}()
	<-rootStarted
	cancel()
	errs := <-errsCh
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("node %d: %v, want context.Canceled", i, e)
		}
	}
	close(gate)
	drain(t, p)
	st := p.Stats()
	if st.Admitted != 3 || st.InFlight != 0 {
		t.Fatalf("admitted %d / in-flight %d, want 3/0", st.Admitted, st.InFlight)
	}
	if st.Completed != 1 || st.Cancelled != 2 {
		t.Fatalf("completed %d / cancelled %d, want 1 (root) / 2 (descendants)",
			st.Completed, st.Cancelled)
	}
	drain(t, p)
}

// TestSubmitDAGDeadlineRefusalCountsPerNode pins the stream-equals-ledger
// identity for a graph refused on a deadline: the refusal is booked once
// per node on the cause counter and the class ledger, so the hub must carry
// one deadline-shed event per node too — not one for the whole graph.
func TestSubmitDAGDeadlineRefusalCountsPerNode(t *testing.T) {
	hub := stream.NewHub()
	sub := hub.Subscribe(stream.SubOptions{Buf: 64,
		Kinds: []stream.Kind{stream.KindDeadlineShed}})
	p := quietPool(t, Config{Name: "t", QueueCap: 8, Events: hub})
	body := func(c *wsrt.Ctx) { t.Error("a node of a refused graph ran") }
	nodes := []DAGNode{
		{Fn: body, Class: ClassHigh, Deadline: time.Now().Add(-time.Second)},
		{Fn: body, Deps: []int{0}},
		{Fn: body, Deps: []int{1}},
	}
	errs, err := p.SubmitDAG(context.Background(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if !errors.Is(e, ErrDeadline) {
			t.Fatalf("node %d: %v, want ErrDeadline", i, e)
		}
	}
	st := p.Stats()
	var classShed int64
	for _, cs := range st.ByClass {
		classShed += cs.Shed
	}
	if st.RejectedDeadline != 3 || classShed != 3 || st.Admitted != 0 {
		t.Fatalf("rejected-deadline %d / class shed %d / admitted %d, want 3/3/0",
			st.RejectedDeadline, classShed, st.Admitted)
	}
	if held := p.inflight.Load(); held != 0 {
		t.Fatalf("refused graph holds %d queue slots", held)
	}
	drain(t, p)
	sub.Close()
	var events int64
	for ev := range sub.Events() {
		if ev.Kind == stream.KindDeadlineShed {
			events++
		}
	}
	if events != classShed {
		t.Fatalf("deadline-shed events = %d, class-shed ledger = %d: stream and ledger disagree",
			events, classShed)
	}
}

// TestSubmitDAGRacingGraphsOneAdmitted races two graphs for a queue sized
// for exactly one of them. Slots are taken in one step, so exactly one
// graph is admitted every round; a slot-by-slot acquire that unwinds on
// failure can refuse both when each holds part of the queue.
func TestSubmitDAGRacingGraphsOneAdmitted(t *testing.T) {
	const size, rounds = 64, 300
	p := quietPool(t, Config{Name: "t", QueueCap: size,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	for round := 0; round < rounds; round++ {
		hold, start := make(chan struct{}), make(chan struct{})
		results := make(chan []error, 2)
		for g := 0; g < 2; g++ {
			go func() {
				nodes := make([]DAGNode, size)
				for i := range nodes {
					nodes[i].Fn = func(c *wsrt.Ctx) { <-hold }
					if i > 0 {
						nodes[i].Deps = []int{i - 1}
					}
				}
				<-start
				errs, err := p.SubmitDAG(context.Background(), nodes)
				if err != nil {
					t.Error(err)
				}
				results <- errs
			}()
		}
		close(start)
		// The admitted graph cannot resolve before hold closes, so the
		// first answer is the refused one.
		refused := <-results
		close(hold)
		admitted := <-results
		for i := range refused {
			if !errors.Is(refused[i], ErrQueueFull) || admitted[i] != nil {
				t.Fatalf("round %d node %d: refused graph %v, admitted graph %v; want exactly one graph admitted",
					round, i, refused[i], admitted[i])
			}
		}
	}
	drain(t, p)
	if st := p.Stats(); st.Admitted != size*rounds || st.RejectedFull != size*rounds || st.Completed != st.Admitted {
		t.Fatalf("admitted %d / rejected_full %d / completed %d, want %d each",
			st.Admitted, st.RejectedFull, st.Completed, size*rounds)
	}
}

// TestExpiredContextIsRefusedNotCancelled submits on a context that is
// already done. Nothing may be admitted or counted, and every answer must
// read as a refusal (ErrExpired) while still matching ctx.Err(), so a
// caller can tell it from an admitted job its context cancelled.
func TestExpiredContextIsRefusedNotCancelled(t *testing.T) {
	p := quietPool(t, Config{Name: "t", Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	noop := func(c *wsrt.Ctx) {}
	errs, err := p.SubmitDAG(ctx, []DAGNode{{Fn: noop}, {Fn: noop, Deps: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	errs = append(errs, p.SubmitBatch(ctx, []wsrt.Func{noop, noop})...)
	errs = append(errs, p.Submit(ctx, noop))
	for i, e := range errs {
		if !errors.Is(e, ErrExpired) || !errors.Is(e, context.Canceled) {
			t.Fatalf("answer %d = %v, want ErrExpired wrapping context.Canceled", i, e)
		}
	}
	drain(t, p)
	if st := p.Stats(); st.Admitted != 0 || st.Cancelled != 0 || st.InFlight != 0 {
		t.Fatalf("admitted %d / cancelled %d / in-flight %d, want 0 each", st.Admitted, st.Cancelled, st.InFlight)
	}
}
