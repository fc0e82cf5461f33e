package wsrt

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// TestSubmitShutdownNoLostJobs is the regression test for the
// Submit-vs-Shutdown TOCTOU: a Submit that passed the closed check could
// complete its queue send after Shutdown's flush loop had already
// observed an empty queue, leaving a job whose Submit returned nil but
// whose onDone never fired — a silently lost job. The submission gate
// makes the closed check and the reservation one CAS, and Shutdown
// flushes until every reservation is back, so every nil-returning
// Submit's job is either run or flushed.
//
// The test hammers Submit from several goroutines while Shutdown races
// at a jittered offset, then requires onDone to have fired exactly once
// for every accepted job. Against the pre-fix runtime this fails within
// a few dozen iterations; post-fix it must always pass, race detector
// included.
func TestSubmitShutdownNoLostJobs(t *testing.T) {
	// Few P's, many submitters: a submitter preempted between the closed
	// check and the queue send then sits on a long run queue, giving the
	// racing Shutdown time to finish its flush before the send lands —
	// exactly the pre-fix loss window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const iters = 60
	for iter := 0; iter < iters; iter++ {
		rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, SubmitQueueCap: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		var accepted, fired atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := rt.Submit(func(*Ctx) {}, func() { fired.Add(1) })
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrClosed):
						return
					case errors.Is(err, ErrSubmitQueueFull):
						runtime.Gosched()
					default:
						t.Error(err)
						return
					}
				}
			}()
		}
		// Jitter the shutdown point across iterations so it lands in
		// different phases of the submit storm.
		time.Sleep(time.Duration(iter%7) * 137 * time.Microsecond)
		if _, err := rt.Shutdown(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// Every submitter has returned, so every accepted Submit finished
		// its send; each such job must have had onDone fire (run by a
		// worker or discarded by the shutdown flush). Allow in-flight
		// callbacks a moment to land.
		deadline := time.Now().Add(5 * time.Second)
		for fired.Load() != accepted.Load() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if got, want := fired.Load(), accepted.Load(); got != want {
			t.Fatalf("iter %d: onDone fired for %d of %d accepted jobs — job lost in the Submit/Shutdown window",
				iter, got, want)
		}
	}
}

// TestShrinkWithWorkConservation mirrors the simulator's
// TestScriptedShrinkDrainsAndRetires on the real runtime: the worker cap
// oscillates hard while deques are non-empty, forcing grants, revokes and
// drains mid-workload. Work must be conserved — every job runs exactly
// once, every spawned leaf executes exactly once, and no completion is
// lost or duplicated. Run under -race in CI.
func TestShrinkWithWorkConservation(t *testing.T) {
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 4), Source: 5,
		Estimator:      core.NewPalirria(),
		Quantum:        300 * time.Microsecond,
		SubmitQueueCap: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var oscWG sync.WaitGroup
	oscWG.Add(1)
	go func() {
		defer oscWG.Done()
		caps := []int{16, 5, 12, 1, 0, 8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt.SetMaxWorkers(caps[i%len(caps)])
			time.Sleep(700 * time.Microsecond)
		}
	}()
	const jobs, leaves = 48, 64
	var leafRuns, jobRuns atomic.Int64
	var fan func(c *Ctx, n int)
	fan = func(c *Ctx, n int) {
		if n <= 1 {
			c.Compute(5_000)
			leafRuns.Add(1)
			return
		}
		c.Spawn(func(cc *Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		for {
			err := rt.Submit(func(c *Ctx) { jobRuns.Add(1); fan(c, leaves) }, wg.Done)
			if err == nil {
				break
			}
			if errors.Is(err, ErrSubmitQueueFull) {
				time.Sleep(50 * time.Microsecond)
				continue
			}
			t.Fatal(err)
		}
		if j%6 == 0 {
			time.Sleep(300 * time.Microsecond) // spread jobs across cap phases
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: jobs did not complete under cap oscillation")
	}
	close(stop)
	oscWG.Wait()
	rep, err := rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if got := jobRuns.Load(); got != jobs {
		t.Fatalf("job bodies ran %d times, want %d — job lost or duplicated", got, jobs)
	}
	if got := leafRuns.Load(); got != jobs*leaves {
		t.Fatalf("leaves ran %d times, want %d — task lost or duplicated across a drain", got, jobs*leaves)
	}
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	if tasks != jobs*leaves {
		t.Fatalf("runtime counted %d tasks, want %d", tasks, jobs*leaves)
	}
	// Shutdown's wall clock is captured after quiesce, so the per-worker
	// accounting partition must hold against the reported wall directly.
	const slack = int64(time.Millisecond)
	for id, w := range rep.Workers {
		if sum := w.UsefulNS + w.SearchNS + w.IdleNS; sum > rep.WallNS+slack {
			t.Errorf("worker %d: useful+search+idle = %d exceeds reported wall %d", id, sum, rep.WallNS)
		}
	}
}

// TestRunNeverLosesRoot is the regression test for the lost root: Run used
// to start the workers and then push the root onto the source worker's
// deque from the calling goroutine, racing the owner's first PopBottom —
// the owner's restore of bottom after the failed pop could overwrite the
// push, leaving every worker parked with zero tasks executed and Run
// waiting forever (about once in 10^4 short runs). The root is now seeded
// before launch, so no cycle may hang.
func TestRunNeverLosesRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of New+Run cycles")
	}
	mesh := topo.MustMesh(2, 2)
	deadline := time.Now().Add(4 * time.Second)
	for i := 0; i < 5000 && time.Now().Before(deadline); i++ {
		rt, err := New(Config{Mesh: mesh, Source: 0, InitialDiaspora: 10})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := rt.Run(func(*Ctx) {})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("cycle %d: Run did not return within 2s — the root was lost", i)
		}
	}
}
