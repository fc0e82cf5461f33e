package wsrt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// TestIdleWorkersParkInValley pins the tentpole behaviour: an idle
// persistent runtime parks its workers instead of busy-polling. It counts
// events rather than reading the clock, so a loaded host cannot fail it.
// This runtime has no estimator, so nothing wakes a parked worker: over
// the valley no wake token may be delivered, and each worker may at most
// finish the one pre-park spin budget (idleSpins failed sweeps of its
// victim list) it was in when the valley began. A worker that polls
// instead of parking keeps sweeping and overruns that bound.
func TestIdleWorkersParkInValley(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Run one job so every worker has cycled through the steal path once.
	submitAndWait(t, rt, func(c *Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn(func(cc *Ctx) { cc.Compute(20_000) })
		}
		c.SyncAll()
	})
	failedProbes := func() int64 {
		var n int64
		for _, w := range rt.workerList {
			n += atomic.LoadInt64(&w.stats.FailedProbes)
		}
		return n
	}
	var budget int64
	policy := rt.loadPolicy().policy
	for _, w := range rt.workerList {
		budget += int64(idleSpins * len(policy.VictimsInto(w.id, nil)))
	}
	p0, w0 := failedProbes(), rt.wakeups.Load()
	time.Sleep(20 * time.Millisecond)
	if rt.parks.Load() == 0 {
		t.Fatal("no worker ever parked — idle path is not event-driven")
	}
	if w := rt.wakeups.Load(); w != w0 {
		t.Fatalf("%d wake tokens delivered in a valley with no work", w-w0)
	}
	if dp := failedProbes() - p0; dp > budget {
		t.Fatalf("idle valley made %d failed probes (one pre-park budget per worker: %d) — workers are polling, not parking",
			dp, budget)
	}
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestParkingStressLostWakeupHunt hunts for lost wakeups in the parking
// protocol: concurrent submitters race against allotment oscillation
// (grants, revokes, policy rebuilds) while the estimator keeps reshaping
// the victim graph under a short quantum. Any hole in the
// announce/re-check/block protocol shows up as a job that never starts —
// the submitAndWait timeout converts it into a failure instead of a hang.
// Run under -race this doubles as the memory-model check on the
// idle-path atomics.
func TestParkingStressLostWakeupHunt(t *testing.T) {
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 4), Source: 5,
		Estimator:      core.NewPalirria(),
		Quantum:        200 * time.Microsecond,
		SubmitQueueCap: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	// Oscillate the worker cap while jobs flow: forces revoke tokens into
	// idle-waiting workers and full policy rebuilds mid-park.
	stopCap := make(chan struct{})
	var capWG sync.WaitGroup
	capWG.Add(1)
	go func() {
		defer capWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopCap:
				rt.SetMaxWorkers(0)
				return
			case <-time.After(500 * time.Microsecond):
			}
			if i%2 == 0 {
				rt.SetMaxWorkers(2)
			} else {
				rt.SetMaxWorkers(0)
			}
		}
	}()
	const (
		submitters = 8
		waves      = 5
		jobsPerSub = 6
	)
	var completed atomic.Int64
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < jobsPerSub; j++ {
					done := make(chan struct{})
					err := rt.Submit(func(c *Ctx) {
						c.Spawn(func(cc *Ctx) { cc.Compute(10_000) })
						c.Compute(10_000)
						c.Sync()
					}, func() { completed.Add(1); close(done) })
					if err != nil {
						// Bounded queue under stress: back off and retry.
						j--
						time.Sleep(100 * time.Microsecond)
						continue
					}
					select {
					case <-done:
					case <-time.After(30 * time.Second):
						t.Error("job never completed — lost wakeup")
						return
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			break
		}
		time.Sleep(2 * time.Millisecond) // let everyone park between waves
	}
	close(stopCap)
	capWG.Wait()
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if want := int64(submitters * waves * jobsPerSub); completed.Load() != want && !t.Failed() {
		t.Fatalf("completed %d of %d jobs", completed.Load(), want)
	}
}

// TestBatchInjectStartupRace races root injection against worker startup
// across several concurrent runtimes: the inject token must not be lost
// even when the source worker's goroutine has not yet reached its first
// park when the root arrives.
func TestBatchInjectStartupRace(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
			if err != nil {
				t.Error(err)
				return
			}
			var ran atomic.Bool
			rep, err := rt.Run(func(c *Ctx) {
				for j := 0; j < 4; j++ {
					c.Spawn(func(cc *Ctx) { cc.Compute(5_000) })
				}
				c.SyncAll()
				ran.Store(true)
			})
			if err != nil {
				t.Error(err)
				return
			}
			if !ran.Load() || rep.WallNS <= 0 {
				t.Error("root did not run")
			}
		}()
	}
	wg.Wait()
}

// TestWakeHandsThiefTheP pins the hand-off after a wake for deque work. Go
// queues a goroutine readied by a running goroutine on the waker's own P,
// so on one P a woken thief cannot run until the waker blocks: the child
// it was woken for would sit in the deque until the spawner's Sync pops it
// back. With the yield after the wake, the thief has already stolen and
// started the child when Spawn returns, and the spawner's time off the CPU
// is charged to SearchNS, not to its own UsefulNS.
func TestWakeHandsThiefTheP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const trials = 20
	handed := 0
	for i := 0; i < trials; i++ {
		ok, why := wakeHandOffTrial(t)
		if ok {
			handed++
		} else {
			t.Logf("trial %d: %s", i, why)
		}
	}
	// Go's scheduler serves its global queue first on one schedule in 61,
	// and there the yielding root comes back before the thief: allow one
	// miss (on a 2-core host about 1 trial in 300 missed). The race
	// detector also randomises whether a readied goroutine takes the P's
	// next slot; there about 1 trial in 50 missed, so allow four.
	want := trials - 1
	if raceEnabled {
		want = trials - 4
	}
	if handed < want {
		t.Fatalf("%d of %d trials handed the P to the woken thief, want >= %d", handed, trials, want)
	}
}

// wakeHandOffTrial runs one root on a fixed three-worker allotment: once
// its thieves have parked, it spawns a child that computes for about 1 ms
// and checks that the child started before Spawn returned.
func wakeHandOffTrial(t *testing.T) (bool, string) {
	t.Helper()
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 1})
	if err != nil {
		t.Fatal(err)
	}
	thieves := int64(rt.mgr.Current().Size() - 1)
	if thieves < 1 {
		t.Fatalf("allotment of %d workers has no thief", thieves+1)
	}
	var childStart, childEnd atomic.Int64
	var (
		rootID           topo.CoreID
		startedEarly     bool
		waitNS, searchNS int64
	)
	rep, err := rt.Run(func(c *Ctx) {
		// A thief may steal the root before the source pops it.
		rootID = c.w.id
		w0 := nowNS()
		deadline := time.Now().Add(time.Second)
		for rt.idleWaiters.Load() < thieves && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		// The wait is the root's own time; only what follows is judged.
		waitNS = nowNS() - w0
		s0 := atomic.LoadInt64(&c.w.stats.SearchNS)
		c.Spawn(func(cc *Ctx) {
			t0 := nowNS()
			childStart.Store(t0)
			for nowNS()-t0 < int64(time.Millisecond) {
				cc.Compute(1000)
			}
			childEnd.Store(nowNS())
		})
		startedEarly = childStart.Load() != 0
		searchNS = atomic.LoadInt64(&c.w.stats.SearchNS) - s0
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !startedEarly {
		return false, "child had not started when Spawn returned"
	}
	childNS := childEnd.Load() - childStart.Load()
	useful := rep.Workers[rootID].UsefulNS - waitNS
	if searchNS < childNS/2 || useful >= childNS/2 {
		return false, fmt.Sprintf("root worker SearchNS %d ns over the spawn, UsefulNS %d ns after its wait; child computed %d ns", searchNS, useful, childNS)
	}
	return true, ""
}
