package wsrt

import (
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/topo"
)

// latencyBudget widens a locally-strict latency bound on noisy hosts: the
// race detector serializes every synchronization event and shared CI
// runners timeshare unpredictably, so wall-clock gates that are tight on a
// quiet developer machine flake there. The regression being guarded — an
// idle path that polls instead of parking — overshoots by orders of
// magnitude, so the x8 budget keeps the gate meaningful.
func latencyBudget(d time.Duration) time.Duration {
	if raceEnabled || os.Getenv("CI") != "" {
		return d * 8
	}
	return d
}

// submitAndWait submits fn and blocks until its completion callback fires.
func submitAndWait(t *testing.T, rt *Runtime, fn Func) {
	t.Helper()
	done := make(chan struct{})
	if err := rt.Submit(fn, func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("submitted job did not complete")
	}
}

func TestPersistentSubmitRunsJobs(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	for i := 0; i < 20; i++ {
		submitAndWait(t, rt, func(c *Ctx) {
			for j := 0; j < 8; j++ {
				c.Spawn(func(cc *Ctx) { sum.Add(1) })
			}
			c.SyncAll()
			sum.Add(1)
		})
	}
	if got := sum.Load(); got != 20*9 {
		t.Fatalf("sum = %d, want %d", got, 20*9)
	}
	rep, err := rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	if tasks != 20*9 {
		t.Fatalf("tasks = %d, want %d (20 roots + 160 spawns)", tasks, 20*9)
	}
}

func TestPersistentConcurrentSubmitters(t *testing.T) {
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 2), Source: 0,
		Estimator:      core.NewPalirria(),
		Quantum:        500 * time.Microsecond,
		SubmitQueueCap: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	const jobs = 64
	var completed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{})
			err := rt.Submit(func(c *Ctx) {
				c.Spawn(func(cc *Ctx) { cc.Compute(20_000) })
				c.Compute(20_000)
				c.Sync()
			}, func() { completed.Add(1); close(done) })
			if err != nil {
				t.Error(err)
				return
			}
			<-done
		}()
	}
	wg.Wait()
	if completed.Load() != jobs {
		t.Fatalf("completed = %d, want %d", completed.Load(), jobs)
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentLifecycleErrors(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Submit and Shutdown require persistent mode.
	if err := rt.Submit(func(c *Ctx) {}, nil); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("Submit before Start = %v, want ErrNotPersistent", err)
	}
	if _, err := rt.Shutdown(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("Shutdown before Start = %v, want ErrNotPersistent", err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); !errors.Is(err, ErrAlreadyUsed) {
		t.Fatalf("second Start = %v, want ErrAlreadyUsed", err)
	}
	if _, err := rt.Run(func(c *Ctx) {}); !errors.Is(err, ErrAlreadyUsed) {
		t.Fatalf("Run after Start = %v, want ErrAlreadyUsed", err)
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Submit(func(c *Ctx) {}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrClosed", err)
	}
	if _, err := rt.Shutdown(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Shutdown = %v, want ErrClosed", err)
	}
}

func TestPersistentQueueFullAndFlush(t *testing.T) {
	// One usable core and a tiny queue: saturate it while the only worker
	// is busy, then Shutdown must fire every pending onDone exactly once.
	rt, err := New(Config{Mesh: topo.MustMesh(2, 1), Source: 0, SubmitQueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Block both workers so nothing drains the queue.
	gate := make(chan struct{})
	var running sync.WaitGroup
	for i := 0; i < 2; i++ {
		running.Add(1)
		if err := rt.Submit(func(c *Ctx) { running.Done(); <-gate }, nil); err != nil {
			t.Fatal(err)
		}
	}
	running.Wait()
	var flushed atomic.Int64
	for i := 0; i < 2; i++ {
		if err := rt.Submit(func(c *Ctx) {}, func() { flushed.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Submit(func(c *Ctx) {}, nil); !errors.Is(err, ErrSubmitQueueFull) {
		t.Fatalf("overflow Submit = %v, want ErrSubmitQueueFull", err)
	}
	close(gate)
	// The two queued no-op jobs either run or are flushed by Shutdown;
	// both paths must invoke onDone.
	deadline := time.After(10 * time.Second)
	for flushed.Load() < 2 {
		select {
		case <-deadline:
			// Shutdown flushes whatever the workers did not reach.
			if _, err := rt.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if flushed.Load() != 2 {
				t.Fatalf("flushed = %d, want 2", flushed.Load())
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if flushed.Load() != 2 {
		t.Fatalf("flushed = %d, want 2", flushed.Load())
	}
}

func TestPersistentAdaptiveGrowsAndShrinksWhileResident(t *testing.T) {
	// The serving scenario end to end on the raw runtime: idle valley,
	// burst, idle valley. The allotment must grow into the burst and the
	// estimator must keep ticking while idle so it shrinks back.
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 4), Source: 5,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var quanta atomic.Int64
	rt.cfg.OnQuantum = func(metrics.Decision) { quanta.Add(1) }
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // idle valley: helper must tick
	if quanta.Load() == 0 {
		t.Fatal("estimator helper not ticking while idle")
	}
	var fan func(c *Ctx, n int)
	fan = func(c *Ctx, n int) {
		if n <= 1 {
			c.Compute(150_000)
			return
		}
		c.Spawn(func(cc *Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	// Bursts of concurrent jobs, so queues build across the allotment the
	// way a loaded server's do.
	for burst := 0; burst < 6; burst++ {
		var wg sync.WaitGroup
		for j := 0; j < 8; j++ {
			wg.Add(1)
			if err := rt.Submit(func(c *Ctx) { fan(c, 128) }, wg.Done); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
	time.Sleep(10 * time.Millisecond) // valley: desire decays
	shrunk := rt.AllotmentSize()
	rep, err := rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxWorkers < 2 {
		t.Fatalf("allotment never grew: max %d", rep.MaxWorkers)
	}
	if shrunk >= rep.MaxWorkers {
		t.Fatalf("allotment did not shrink in the valley: %d (peak %d)", shrunk, rep.MaxWorkers)
	}
}

func TestSubmitLatencyAfterIdle(t *testing.T) {
	// Submit-to-start latency with the runtime idle before every
	// submission. The seed's idle loop slept on an exponential backoff
	// capped at 256µs, so a job submitted into a quiet runtime waited for
	// someone's timer to expire — median ≈128µs. With Submit waking the
	// target shard's owner right after the push, the median collapses to
	// scheduler-switch cost. The
	// 100µs bound is loose enough for CI noise yet impossible for the
	// old backoff loop to meet.
	bound := latencyBudget(100 * time.Microsecond)
	measure := func() time.Duration {
		rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		const trials = 101
		lat := make([]int64, 0, trials)
		started := make(chan int64)
		for i := 0; i < trials; i++ {
			time.Sleep(2 * time.Millisecond) // let every worker park
			t0 := nowNS()
			if err := rt.Submit(func(*Ctx) { started <- nowNS() }, nil); err != nil {
				t.Fatal(err)
			}
			lat = append(lat, <-started-t0)
		}
		if _, err := rt.Shutdown(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		t.Logf("submit-to-start: p50=%s p99=%s",
			time.Duration(lat[trials/2]), time.Duration(lat[trials-2]))
		return time.Duration(lat[trials/2])
	}
	median := measure()
	if median > bound {
		// Retry once: a single noisy-neighbor burst can shift a whole
		// median, but a real regression to a polling idle path overshoots
		// on every attempt.
		t.Logf("median %s over %s budget, retrying once", median, bound)
		median = measure()
	}
	if median > bound {
		t.Fatalf("median submit-to-start latency %s exceeds %s — idle path regressed to polling",
			median, bound)
	}
}

func TestShutdownLatencyBounded(t *testing.T) {
	// Shutdown of an idle persistent runtime must complete promptly: every
	// parked or idle-waiting worker is woken by an explicit token, never by
	// a timeout fallback. A regression that loses the stop wakeup would
	// hang forever; one that reintroduces a timed park would show up as
	// multi-hundred-millisecond shutdowns.
	bound := latencyBudget(500 * time.Millisecond)
	measure := func() time.Duration {
		rt, err := New(Config{
			Mesh: topo.MustMesh(4, 4), Source: 5,
			Estimator: core.NewPalirria(),
			Quantum:   500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		submitAndWait(t, rt, func(c *Ctx) {
			for i := 0; i < 16; i++ {
				c.Spawn(func(cc *Ctx) { cc.Compute(50_000) })
			}
			c.SyncAll()
		})
		time.Sleep(5 * time.Millisecond) // everyone back to parked/idle
		t0 := time.Now()
		if _, err := rt.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	d := measure()
	if d > bound {
		t.Logf("shutdown took %s against %s budget, retrying once", d, bound)
		d = measure()
	}
	if d > bound {
		t.Fatalf("Shutdown of an idle runtime took %s (budget %s) — a worker missed its stop wakeup", d, bound)
	}
}
