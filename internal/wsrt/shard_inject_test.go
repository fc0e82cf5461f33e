package wsrt

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// blockAllWorkers occupies every worker with a job parked on the returned
// gate, so subsequently submitted jobs stay queued in the injection
// shards. Callers must close the gate before tearing the runtime down.
func blockAllWorkers(t *testing.T, rt *Runtime, n int) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	var running sync.WaitGroup
	for i := 0; i < n; i++ {
		running.Add(1)
		if err := rt.Submit(func(c *Ctx) { running.Done(); <-gate }, nil); err != nil {
			t.Fatal(err)
		}
	}
	running.Wait()
	return gate
}

// TestShutdownFlushesAllShards is the regression gate for the sharded
// flush: jobs queued across several injection shards when Shutdown closes the gate must
// all have their onDone fired by Shutdown — a flush that drained only one
// queue (the legacy global funnel, or just the first shard) loses some.
func TestShutdownFlushesAllShards(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10, SubmitQueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	gate := blockAllWorkers(t, rt, len(rt.workerList))
	const queued = 32
	var flushed atomic.Int64
	for i := 0; i < queued; i++ {
		if err := rt.Submit(func(c *Ctx) {}, func() { flushed.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for _, w := range rt.workerList {
		if w.shard.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("round-robin left %d shards non-empty, want >= 2 (test would not prove a multi-shard flush)", nonEmpty)
	}
	// Shutdown closes the gate and stops the workers; they are all still inside the
	// gated jobs, so none can drain a shard before retiring. Release the
	// gate only after every worker is marked stopped — the queued jobs can
	// then only resolve through the flush.
	shutdownErr := make(chan error, 1)
	go func() {
		_, err := rt.Shutdown()
		shutdownErr <- err
	}()
	deadline := time.After(10 * time.Second)
	for {
		stopped := 0
		for _, w := range rt.workerList {
			if w.state.Load() == stateStopped {
				stopped++
			}
		}
		if stopped == len(rt.workerList) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("workers never reached stateStopped")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	if got := flushed.Load(); got != queued {
		t.Fatalf("flush fired %d onDone callbacks, want %d", got, queued)
	}
	if got := rt.backlogTotal(); got != 0 {
		t.Fatalf("aggregate backlog %d after flush, want 0", got)
	}
	if err := rt.VerifySubmitLedger(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitBatchRunsAllJobs(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10, SubmitQueueCap: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	const batches, per = 8, 16
	var ran, done atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]Job, per)
			var batchDone sync.WaitGroup
			for i := range jobs {
				batchDone.Add(1)
				jobs[i] = Job{
					Fn: func(c *Ctx) {
						c.Spawn(func(cc *Ctx) { ran.Add(1) })
						c.SyncAll()
						ran.Add(1)
					},
					OnDone: func() { done.Add(1); batchDone.Done() },
				}
			}
			for off := 0; off < per; {
				n, err := rt.SubmitBatch(jobs[off:])
				off += n
				if err != nil {
					if errors.Is(err, ErrSubmitQueueFull) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					t.Errorf("SubmitBatch: %v", err)
					return
				}
			}
			batchDone.Wait()
		}()
	}
	wg.Wait()
	if got := done.Load(); got != batches*per {
		t.Fatalf("onDone fired %d times, want %d", got, batches*per)
	}
	if got := ran.Load(); got != batches*per*2 {
		t.Fatalf("ran %d task bodies, want %d", got, batches*per*2)
	}
	if got := rt.injectedTotal(); got != batches*per {
		t.Fatalf("injected counter %d, want %d", got, batches*per)
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchPrefixAcceptance checks the documented partial-failure
// contract: when the aggregate backlog bound fills mid-batch, the first n
// jobs are on the books (onDone fires for each, here via the shutdown
// flush) and the rest were never touched.
func TestSubmitBatchPrefixAcceptance(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(2, 1), Source: 0, SubmitQueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	gate := blockAllWorkers(t, rt, len(rt.workerList))
	var fired atomic.Int64
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Fn: func(c *Ctx) {}, OnDone: func() { fired.Add(1) }}
	}
	n, err := rt.SubmitBatch(jobs)
	if n != 4 || !errors.Is(err, ErrSubmitQueueFull) {
		t.Fatalf("SubmitBatch = (%d, %v), want (4, ErrSubmitQueueFull)", n, err)
	}
	if err := rt.Submit(func(c *Ctx) {}, nil); !errors.Is(err, ErrSubmitQueueFull) {
		t.Fatalf("overflow Submit = %v, want ErrSubmitQueueFull", err)
	}
	close(gate)
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != int64(n) {
		t.Fatalf("onDone fired %d times, want %d (accepted prefix only)", got, n)
	}
}

func TestSubmitBatchLifecycleErrors(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(2, 1), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := rt.SubmitBatch([]Job{{Fn: func(c *Ctx) {}}}); n != 0 || !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("SubmitBatch before Start = (%d, %v), want (0, ErrNotPersistent)", n, err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if n, err := rt.SubmitBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty SubmitBatch = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n, err := rt.SubmitBatch([]Job{{Fn: func(c *Ctx) {}}}); n != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitBatch after Shutdown = (%d, %v), want (0, ErrClosed)", n, err)
	}
}

// TestPickShardDegeneratePaths pins the fallbacks around the p2c pick: a
// nil bundle (Submit before the first rebuild), a bundle with an empty
// member list (degenerate grant), and a single-member grant must all
// yield a usable shard.
func TestPickShardDegeneratePaths(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 1), Source: 0, InitialDiaspora: 10,
		SubmitQueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	if w := rt.pickShard(nil); w == nil || rt.byID[w.id] != w {
		t.Fatalf("nil bundle: pick = %v, want a runtime worker", w)
	}
	if w := rt.pickShard(&policyBundle{}); w == nil || rt.byID[w.id] != w {
		t.Fatalf("empty members: pick = %v, want a workerList fallback", w)
	}
	solo := rt.byID[2]
	if w := rt.pickShard(&policyBundle{members: []*worker{solo}}); w != solo {
		t.Fatalf("single member: pick = %v, want worker 2", w)
	}
}

// TestPushAnyPrefersGrantedMembers pins the fallback-publish ordering fix:
// pushAny must try the current bundle's granted members before any
// revoked or never-granted shard, and spill outside the grant only when
// every member shard is full.
func TestPushAnyPrefersGrantedMembers(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 1), Source: 0, InitialDiaspora: 10,
		SubmitQueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A grant of worker 2 only: the old flat core-order scan would land
	// the publish in worker 0's shard — a non-member with no owner loop
	// draining it.
	member := rt.byID[2]
	rt.policy.Store(&policyBundle{members: []*worker{member}})
	if w := rt.pushAny(&rtTask{fn: func(*Ctx) {}}); w != member {
		t.Fatalf("pushAny landed in worker %d, want granted worker 2", w.id)
	}
	// Fill the member's shard; the overflow must now spill to the first
	// non-member in core order — last resort, not first choice.
	for member.shard.Push(&rtTask{fn: func(*Ctx) {}}) {
	}
	if w := rt.pushAny(&rtTask{fn: func(*Ctx) {}}); w != rt.byID[0] {
		t.Fatalf("overflow pushAny landed in worker %d, want worker 0", w.id)
	}
	// No bundle at all: the plain core-order scan (worker 0 has room).
	rt2, err := New(Config{Mesh: topo.MustMesh(2, 1), Source: 0, SubmitQueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt2.policy.Store(&policyBundle{}) // empty members
	if w := rt2.pushAny(&rtTask{fn: func(*Ctx) {}}); w != rt2.byID[0] {
		t.Fatalf("no-members pushAny landed in worker %d, want worker 0", w.id)
	}
}

// TestStrandedJobPickupLatency is the end-to-end regression for the
// stranded-publish bug: a job sitting in the shard of a worker outside
// the current grant must still start within a bounded window (the
// takeSibling rescue scan), not wait for the next grant to include that
// worker again.
func TestStrandedJobPickupLatency(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 1), Source: 0, InitialDiaspora: 10,
		SubmitQueueCap: 16, Estimator: core.NewPalirria()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Shrink the grant below the full mesh and wait for the rebuild to
	// land (grants are zone-granular, so the floor is the zone-1
	// allotment, not a single worker). Estimation quanta only advance
	// while work flows, so a trickle of no-op jobs drives the decisions
	// that apply the lowered cap.
	rt.SetMaxWorkers(1)
	deadline := time.Now().Add(latencyBudget(10 * time.Second))
	for {
		if b := rt.loadPolicy(); b != nil && len(b.members) > 0 && len(b.members) < len(rt.workerList) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("grant never shrank below the full mesh")
		}
		if err := rt.Submit(func(c *Ctx) {}, nil); err != nil {
			t.Fatalf("trickle submit: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	b := rt.loadPolicy()
	// Strand a job in a revoked worker's shard, reservation and wakeup
	// included — exactly what a Submit that raced the revocation did.
	var victim *worker
	for _, w := range rt.workerList {
		if !isMember(b.members, w) {
			victim = w
			break
		}
	}
	done := make(chan struct{})
	if got, err := rt.gate.reserve(1); got != 1 || err != nil {
		t.Fatalf("reservation failed on an idle runtime: %d, %v", got, err)
	}
	if !victim.shard.Push(&rtTask{fn: func(*Ctx) {}, onDone: func() { close(done) }}) {
		t.Fatal("push failed after successful reservation")
	}
	rt.wakeForInject(victim)
	select {
	case <-done:
	case <-time.After(latencyBudget(5 * time.Second)):
		t.Fatal("stranded job never picked up: rescue scan broken")
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := rt.VerifySubmitLedger(); err != nil {
		t.Fatal(err)
	}
}
