package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// fanJob is the serving workload: a binary fan of n leaves, each computing
// work synthetic cycles.
func fanJob(n, work int) wsrt.Func {
	var fan func(c *wsrt.Ctx, n int)
	fan = func(c *wsrt.Ctx, n int) {
		if n <= 1 {
			c.Compute(int64(work))
			return
		}
		c.Spawn(func(cc *wsrt.Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	return func(c *wsrt.Ctx) { fan(c, n) }
}

// TestServeSustainedLoadWaves is the acceptance scenario: a resident pool
// under an open/closed wave pattern — bursts of concurrent fan/join jobs
// separated by idle valleys. The pool must admit every job it accepts
// exactly once (completed + cancelled == admitted, nothing in flight after
// drain), and the allotment must track the waves: growth above the zone
// floor during bursts, shrinkage back down in valleys.
func TestServeSustainedLoadWaves(t *testing.T) {
	p, err := New(Config{
		Name: "waves",
		Runtime: wsrt.Config{
			Mesh:    topo.MustMesh(4, 4),
			Source:  5,
			Quantum: 500 * time.Microsecond,
		},
		QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	floor := p.AllotmentSize()

	var ok, rejected atomic.Int64
	peak, valleyMin := 0, 1<<30
	const maxCycles = 8
	for cycle := 0; cycle < maxCycles; cycle++ {
		// Burst: 16 closed-loop submitters keep the pool saturated well
		// above the floor allotment's throughput.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch err := p.Submit(context.Background(), fanJob(128, 20_000)); {
					case err == nil:
						ok.Add(1)
					case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded):
						rejected.Add(1)
					default:
						t.Errorf("submit: %v", err)
						return
					}
				}
			}()
		}
		burstEnd := time.Now().Add(150 * time.Millisecond)
		for time.Now().Before(burstEnd) {
			if a := p.AllotmentSize(); a > peak {
				peak = a
			}
			time.Sleep(time.Millisecond)
		}
		close(stop)
		wg.Wait()

		// Valley: the stream stops; the helper keeps ticking on the idle
		// runtime and the allotment must come back down.
		valleyEnd := time.Now().Add(250 * time.Millisecond)
		for time.Now().Before(valleyEnd) {
			if a := p.AllotmentSize(); a < valleyMin {
				valleyMin = a
			}
			time.Sleep(2 * time.Millisecond)
		}
		if peak > floor && valleyMin < peak {
			break // both directions observed; no need to keep hammering
		}
	}
	if peak <= floor {
		t.Errorf("allotment never grew during bursts: peak %d, floor %d", peak, floor)
	}
	if valleyMin >= peak {
		t.Errorf("allotment never shrank in valleys: valley min %d, peak %d", valleyMin, peak)
	}

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
	if st.Admitted == 0 {
		t.Fatal("no jobs admitted at all")
	}
	rep := p.Final()
	if rep == nil {
		t.Fatal("no final report after drain")
	}
	if rep.MaxWorkers != rep.Timeline.Max() {
		t.Fatalf("report inconsistent: MaxWorkers %d != timeline max %d",
			rep.MaxWorkers, rep.Timeline.Max())
	}
	if rep.MaxWorkers < peak {
		t.Fatalf("timeline peak %d below observed allotment %d", rep.MaxWorkers, peak)
	}
	t.Logf("waves: floor=%d peak=%d valleyMin=%d ok=%d rejected=%d admitted=%d",
		floor, peak, valleyMin, ok.Load(), rejected.Load(), st.Admitted)
}

// TestServeOverloadShedsAndRecovers drives the shed latch end to end with
// the real estimation helper: a tiny pool (allotment floor == capacity, so
// desire is structurally pinned) saturates its queue with blocked jobs,
// the latch arms after ShedQuanta live quanta, and once the backlog fully
// drains the latch releases and admission resumes.
func TestServeOverloadShedsAndRecovers(t *testing.T) {
	p, err := New(Config{
		Name: "tiny",
		Runtime: wsrt.Config{
			Mesh:    topo.MustMesh(2, 1),
			Quantum: 200 * time.Microsecond,
		},
		QueueCap:   3,
		ShedQuanta: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.Submit(context.Background(), func(c *wsrt.Ctx) {}) //nolint:errcheck
	}()
	// All three slots held: two running, one queued. The helper must now
	// observe pinned desire + saturation and arm the latch.
	armed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if p.shedLevel.Load() > 0 {
			armed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !armed {
		t.Fatal("shed latch never armed under live saturation")
	}
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit while overloaded = %v, want ErrOverloaded", err)
	}
	close(gate)
	wg.Wait()
	// Backlog gone: the latch must release (via the drained-empty path —
	// on this mesh desire can never drop below capacity) and admission
	// must resume.
	recovered := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		err := p.Submit(context.Background(), func(c *wsrt.Ctx) {})
		if err == nil {
			recovered = true
			break
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit during recovery = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("pool never recovered from shedding after the backlog drained")
	}
	drain(t, p)
	st := p.Stats()
	if st.RejectedShed < 1 {
		t.Fatalf("rejectedShed = %d, want >= 1", st.RejectedShed)
	}
	if st.Completed+st.Cancelled != st.Admitted || st.InFlight != 0 {
		t.Fatalf("accounting broken: %+v", st)
	}
}
