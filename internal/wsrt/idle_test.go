package wsrt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// TestIdleWorkersParkInValley pins the tentpole behaviour: an idle
// persistent runtime parks its workers instead of busy-polling. Over a
// 20ms valley the workers must actually block (parks advance) and the
// search time burned across the whole allotment must be a small fraction
// of the window — the seed's backoff loop accumulated search time linear
// in the valley length on every idle worker.
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
	time.Sleep(2 * time.Millisecond) // drain the post-job spin budget
	searchSum := func() int64 {
		var s int64
		for _, w := range rt.workerList {
			s += atomic.LoadInt64(&w.stats.SearchNS)
		}
		return s
	}
	s0 := searchSum()
	const valley = 20 * time.Millisecond
	time.Sleep(valley)
	ds := searchSum() - s0
	if rt.parks.Load() == 0 {
		t.Fatal("no worker ever parked — idle path is not event-driven")
	}
	// 8 workers × 20ms = 160ms of worker-time in the valley. Allow 10% of
	// one worker's window for straggler spins; busy-polling would burn
	// orders of magnitude more.
	if budget := int64(valley) / 10; ds > budget {
		t.Fatalf("idle valley burned %s of search time (budget %s) — workers are polling, not parking",
			time.Duration(ds), time.Duration(budget))
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
