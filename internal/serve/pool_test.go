package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// quietPool builds a pool whose estimation helper effectively never ticks
// (quantum = 1h), so tests can drive noteQuantum deterministically.
func quietPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.Runtime.Mesh == nil {
		cfg.Runtime.Mesh = topo.MustMesh(4, 2)
	}
	if cfg.Runtime.Quantum == 0 {
		cfg.Runtime.Quantum = time.Hour
	}
	cfg.Runtime.InitialDiaspora = 10 // clamped to the mesh: all workers active
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestPoolSubmitCompletes(t *testing.T) {
	p := quietPool(t, Config{Name: "t"})
	var sum atomic.Int64
	for i := 0; i < 10; i++ {
		err := p.Submit(context.Background(), func(c *wsrt.Ctx) {
			for j := 0; j < 4; j++ {
				c.Spawn(func(cc *wsrt.Ctx) { sum.Add(1) })
			}
			c.SyncAll()
			sum.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := sum.Load(); got != 50 {
		t.Fatalf("sum = %d, want 50", got)
	}
	st := p.Stats()
	if st.Admitted != 10 || st.Completed != 10 || st.Cancelled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	drain(t, p)
	if !p.Drained() || p.Final() == nil {
		t.Fatal("pool not drained or report missing")
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 3, Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	gate := make(chan struct{})
	var started sync.WaitGroup
	var wg sync.WaitGroup
	// Two blocked jobs occupy both workers; one more sits queued: the
	// pool is at its 3-job bound.
	for i := 0; i < 2; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Submit(context.Background(), func(c *wsrt.Ctx) { started.Done(); <-gate }); err != nil {
				t.Error(err)
			}
		}()
	}
	started.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); err != nil {
			t.Error(err)
		}
	}()
	// Wait until the third job holds the last slot.
	for i := 0; p.inflight.Load() < 3 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}
	if p.Stats().RejectedFull != 1 {
		t.Fatalf("rejectedFull = %d, want 1", p.Stats().RejectedFull)
	}
	close(gate)
	wg.Wait()
	drain(t, p)
}

func TestPoolContextCancelBeforeStart(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 8, Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	gate := make(chan struct{})
	var started sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(c *wsrt.Ctx) { started.Done(); <-gate }) //nolint:errcheck
		}()
	}
	started.Wait()
	// This job can never start: cancel it while queued.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var ran atomic.Bool
	go func() {
		errc <- p.Submit(ctx, func(c *wsrt.Ctx) { ran.Store(true) })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
	close(gate)
	wg.Wait()
	drain(t, p)
	if ran.Load() {
		t.Fatal("cancelled job must not run")
	}
	st := p.Stats()
	if st.Cancelled != 1 || st.Completed != 2 {
		t.Fatalf("stats = %+v, want 2 completed / 1 cancelled", st)
	}
}

func TestPoolDrainRejectsNewWork(t *testing.T) {
	p := quietPool(t, Config{Name: "t"})
	drain(t, p)
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	drain(t, p)
}

func TestPoolShedLatch(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 2, ShedQuanta: 3, Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	cap := p.Capacity()

	// Desire pinned at capacity but the queue is empty: no shed.
	for i := 0; i < 10; i++ {
		p.noteQuantum(metrics.Decision{Desired: cap, Granted: cap})
	}
	if p.shedLevel.Load() > 0 {
		t.Fatal("shed armed without queue saturation")
	}

	// Saturate the queue with blocked jobs, then pin desire at capacity.
	gate := make(chan struct{})
	var started sync.WaitGroup
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(c *wsrt.Ctx) { started.Done(); <-gate }) //nolint:errcheck
		}()
	}
	started.Wait()
	p.ladder.pinned = 0
	for i := 0; i < 2; i++ {
		p.noteQuantum(metrics.Decision{Desired: cap, Granted: cap})
	}
	if p.shedLevel.Load() > 0 {
		t.Fatal("shed armed before ShedQuanta consecutive quanta")
	}
	p.noteQuantum(metrics.Decision{Desired: cap, Granted: cap})
	if p.shedLevel.Load() == 0 {
		t.Fatal("shed latch did not arm")
	}
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit while shedding = %v, want ErrOverloaded", err)
	}
	if p.Stats().RejectedShed != 1 {
		t.Fatalf("rejectedShed = %d, want 1", p.Stats().RejectedShed)
	}
	// The latch holds while desire stays pinned, even as the queue
	// drains...
	p.noteQuantum(metrics.Decision{Desired: cap, Granted: cap})
	if p.shedLevel.Load() == 0 {
		t.Fatal("latch released while desire still pinned")
	}
	// ...and releases as soon as desire drops below capacity.
	p.noteQuantum(metrics.Decision{Desired: cap - 1, Granted: cap})
	if p.shedLevel.Load() > 0 {
		t.Fatal("latch did not release when desire dropped")
	}
	close(gate)
	wg.Wait()
	drain(t, p)
}

func TestPoolMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	p := quietPool(t, Config{Name: "web", Metrics: reg})
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	drain(t, p)
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`palirria_pool_admitted_total{pool="web"} 1`,
		`palirria_pool_completed_total{pool="web"} 1`,
		`palirria_pool_rejected_total{pool="web",reason="full"} 0`,
		`palirria_pool_admission_latency_seconds_count{pool="web"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPoolFreshDesireAgrees holds a pool to one desire before its first
// quantum: Stats, the desire gauge and the tenant bid all read the
// allotment, so the spare a fresh pool gossips is the capacity it could
// still grant beyond it.
func TestPoolFreshDesireAgrees(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := New(Config{Name: "fresh", Metrics: reg,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(4, 2), Quantum: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(t, p)
	st := p.Stats()
	if st.Allotment != p.AllotmentSize() || st.Allotment >= st.Capacity {
		t.Fatalf("fresh pool allotment %d, capacity %d: want a zone-1 start below capacity", st.Allotment, st.Capacity)
	}
	if st.Desire != p.LiveDesire() || st.Desire != st.Allotment {
		t.Fatalf("Stats().Desire = %d, LiveDesire() = %d, allotment %d: want all equal", st.Desire, p.LiveDesire(), st.Allotment)
	}
	if st.Spare != st.Capacity-st.Allotment {
		t.Fatalf("Spare = %d, want capacity %d - allotment %d", st.Spare, st.Capacity, st.Allotment)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if want := fmt.Sprintf(`palirria_pool_desire_workers{pool="fresh"} %d`, st.Desire); !strings.Contains(sb.String(), want) {
		t.Fatalf("metrics missing %q:\n%s", want, sb.String())
	}
}

func TestPoolDrainZeroLoss(t *testing.T) {
	// Fire a storm of jobs, drain in the middle of it, and account for
	// every single admission: completed + cancelled == admitted, nothing
	// in flight, and every nil Submit maps to one completion.
	p := quietPool(t, Config{Name: "t", QueueCap: 64, Runtime: wsrt.Config{Mesh: topo.MustMesh(4, 2)}})
	var ok, rejected atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Submit(context.Background(), func(c *wsrt.Ctx) {
				c.Spawn(func(cc *wsrt.Ctx) { cc.Compute(5_000) })
				c.Compute(5_000)
				c.Sync()
			})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining):
				rejected.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
		if i == 100 {
			wg.Add(1)
			go func() { defer wg.Done(); drain(t, p) }()
		}
	}
	wg.Wait()
	drain(t, p)
	st := p.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in flight after drain: %d", st.InFlight)
	}
	if st.Completed+st.Cancelled != st.Admitted {
		t.Fatalf("lost jobs: admitted %d != completed %d + cancelled %d",
			st.Admitted, st.Completed, st.Cancelled)
	}
	if ok.Load() != st.Completed {
		t.Fatalf("client successes %d != completed %d", ok.Load(), st.Completed)
	}
	if ok.Load()+rejected.Load() != 200 {
		t.Fatalf("accounting: ok %d + rejected %d != 200", ok.Load(), rejected.Load())
	}
}

// TestPoolSubmitStatsRaceInvariants hammers Submit from several goroutines
// against a continuous Stats scraper (run it under -race). The scraper
// asserts what a non-atomic multi-counter snapshot can honestly promise:
// no gauge ever goes negative (the Queued clamp), and the cumulative
// counters never move backwards — the admitted-before-Submit bug rolled
// `admitted` back on a lost race against Drain, which a scrape observed as
// a decreasing counter. The quiescent end state asserts the documented
// invariant exactly: admitted == completed + cancelled, nothing in flight.
func TestPoolSubmitStatsRaceInvariants(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 8})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := p.Submit(context.Background(), func(c *wsrt.Ctx) { c.Compute(2_000) })
				if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
					t.Errorf("unexpected submit error: %v", err)
					return
				}
			}
		}()
	}
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		var last Stats
		for !stop.Load() {
			st := p.Stats()
			if st.Queued < 0 || st.Running < 0 || st.InFlight < 0 {
				t.Errorf("negative gauge in scrape: %+v", st)
				return
			}
			if st.Admitted < last.Admitted || st.Completed < last.Completed ||
				st.Cancelled < last.Cancelled || st.RejectedFull < last.RejectedFull {
				t.Errorf("counter went backwards: %+v -> %+v", last, st)
				return
			}
			last = st
		}
	}()
	// Let the hammer run, then drain it mid-flight: the shutdown race is
	// what made the old pre-Submit admitted increment visible (rt.Submit
	// fails with ErrClosed and the rollback decremented the counter).
	time.Sleep(30 * time.Millisecond)
	drain(t, p)
	stop.Store(true)
	wg.Wait()
	<-scraperDone
	st := p.Stats()
	if st.InFlight != 0 {
		t.Fatalf("in flight after drain: %d", st.InFlight)
	}
	if st.Admitted != st.Completed+st.Cancelled {
		t.Fatalf("admitted %d != completed %d + cancelled %d",
			st.Admitted, st.Completed, st.Cancelled)
	}
}

func TestPoolSubmitBatchCompletes(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 64})
	var sum atomic.Int64
	fns := make([]wsrt.Func, 12)
	for i := range fns {
		fns[i] = func(c *wsrt.Ctx) {
			c.Spawn(func(cc *wsrt.Ctx) { sum.Add(1) })
			c.SyncAll()
			sum.Add(1)
		}
	}
	for i, err := range p.SubmitBatch(context.Background(), fns) {
		if err != nil {
			t.Fatalf("batch entry %d: %v", i, err)
		}
	}
	if got := sum.Load(); got != 24 {
		t.Fatalf("sum = %d, want 24", got)
	}
	st := p.Stats()
	if st.Admitted != 12 || st.Completed != 12 || st.Cancelled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	drain(t, p)
	for i, err := range p.SubmitBatch(context.Background(), fns) {
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("post-drain batch entry %d = %v, want ErrDraining", i, err)
		}
	}
}

// TestPoolSubmitBatchPartialQueueFull checks per-entry admission: a batch
// larger than the free admission slots admits a prefix-by-slot-order and
// rejects the overflow entries with ErrQueueFull, leaving the admitted
// ones to complete normally.
func TestPoolSubmitBatchPartialQueueFull(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 3, Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	gate := make(chan struct{})
	var started sync.WaitGroup
	var blocked sync.WaitGroup
	for i := 0; i < 2; i++ {
		started.Add(1)
		blocked.Add(1)
		go func() {
			defer blocked.Done()
			err := p.Submit(context.Background(), func(c *wsrt.Ctx) { started.Done(); <-gate })
			if err != nil {
				t.Errorf("blocked submit: %v", err)
			}
		}()
	}
	started.Wait() // two slots held by running jobs; one slot free
	fns := make([]wsrt.Func, 4)
	var ran atomic.Int64
	for i := range fns {
		fns[i] = func(c *wsrt.Ctx) { ran.Add(1) }
	}
	errsCh := make(chan []error, 1)
	go func() { errsCh <- p.SubmitBatch(context.Background(), fns) }()
	// Admission happens synchronously inside SubmitBatch before it waits,
	// so the rejection counter reaching 3 means the slot accounting is
	// settled; only then may the gate release the slot-holding jobs.
	for deadline := time.Now().Add(10 * time.Second); p.Stats().RejectedFull < 3; {
		if time.Now().After(deadline) {
			t.Fatal("batch admission never rejected the overflow entries")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	errs := <-errsCh
	blocked.Wait()
	if errs[0] != nil {
		t.Fatalf("entry 0 = %v, want nil (one slot was free)", errs[0])
	}
	for i := 1; i < 4; i++ {
		if !errors.Is(errs[i], ErrQueueFull) {
			t.Fatalf("entry %d = %v, want ErrQueueFull", i, errs[i])
		}
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("ran %d batch jobs, want 1", got)
	}
	st := p.Stats()
	if st.RejectedFull != 3 {
		t.Fatalf("rejected_full = %d, want 3", st.RejectedFull)
	}
	drain(t, p)
}
