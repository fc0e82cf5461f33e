package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/metrics"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// pinQuantum drives one saturated-desire quantum tap.
func pinQuantum(p *Pool) {
	cap := p.Capacity()
	p.noteQuantum(metrics.Decision{Desired: cap, Granted: cap})
}

// saturate fills the pool with blocked jobs until every queue slot is
// held, returning the release gate and the submitters' WaitGroup.
func saturate(t *testing.T, p *Pool, jobs int) (chan struct{}, *sync.WaitGroup) {
	t.Helper()
	gate := make(chan struct{})
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < jobs; i++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Submit(context.Background(), func(c *wsrt.Ctx) { started.Done(); <-gate }) //nolint:errcheck
		}()
	}
	started.Wait()
	return gate, &wg
}

// TestPoolShedLadderEscalation walks the ladder one class at a time: at
// level L every class below L is rejected with ErrOverloaded before the
// queue is even consulted, while classes at or above L still reach the
// admission queue (and bounce off it with ErrQueueFull here, since the
// queue is saturated — the error kind is what distinguishes "shed by
// class" from "admitted but full").
func TestPoolShedLadderEscalation(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 2, ShedQuanta: 2,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	gate, wg := saturate(t, p, 2)

	submit := func(class Class) error {
		return p.SubmitJob(context.Background(), Job{Fn: func(c *wsrt.Ctx) {}, Class: class})
	}

	// Level 0: nothing shed; every class bounces off the full queue.
	for c := ClassLow; c < NumClasses; c++ {
		if err := submit(c); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("level 0, class %v: %v, want ErrQueueFull", c, err)
		}
	}

	steps := []struct {
		level int32
		shed  []Class
		full  []Class
	}{
		{1, []Class{ClassLow}, []Class{ClassNormal, ClassHigh}},
		{2, []Class{ClassLow, ClassNormal}, []Class{ClassHigh}},
		{3, []Class{ClassLow, ClassNormal, ClassHigh}, nil},
	}
	for _, step := range steps {
		pinQuantum(p)
		pinQuantum(p)
		if got := p.shedLevel.Load(); got != step.level {
			t.Fatalf("shed level = %d, want %d", got, step.level)
		}
		if got := p.Stats().ShedLevel; got != step.level {
			t.Fatalf("Stats.ShedLevel = %d, want %d", got, step.level)
		}
		for _, c := range step.shed {
			if err := submit(c); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("level %d, class %v: %v, want ErrOverloaded", step.level, c, err)
			}
		}
		for _, c := range step.full {
			if err := submit(c); !errors.Is(err, ErrQueueFull) {
				t.Fatalf("level %d, class %v: %v, want ErrQueueFull", step.level, c, err)
			}
		}
	}

	// Per-class shed ledger: low was shed at levels 1, 2 and 3; normal at 2
	// and 3; high only at 3.
	st := p.Stats()
	if st.ByClass[ClassLow].Shed != 3 || st.ByClass[ClassNormal].Shed != 2 ||
		st.ByClass[ClassHigh].Shed != 1 {
		t.Fatalf("per-class shed = %d/%d/%d, want 3/2/1",
			st.ByClass[ClassLow].Shed, st.ByClass[ClassNormal].Shed, st.ByClass[ClassHigh].Shed)
	}

	// Desire dropping below capacity resets the whole ladder.
	cp := p.Capacity()
	p.noteQuantum(metrics.Decision{Desired: cp - 1, Granted: cp})
	if p.shedLevel.Load() != 0 {
		t.Fatal("ladder did not reset when desire dropped below capacity")
	}

	close(gate)
	wg.Wait()
	drain(t, p)
}

// TestPoolDeadlineShed seeds the admission histogram with a slow
// submit-to-start distribution and checks that an unmeetable deadline is
// rejected with ErrDeadline before touching the queue, while generous and
// absent deadlines admit normally.
func TestPoolDeadlineShed(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 8})
	// Observed p99 near 0.5s: a deadline a few ms out is unmeetable.
	for i := 0; i < 100; i++ {
		p.latHist.Observe(0.5)
	}
	err := p.SubmitJob(context.Background(), Job{
		Fn:       func(c *wsrt.Ctx) {},
		Class:    ClassHigh,
		Deadline: time.Now().Add(2 * time.Millisecond),
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("tight deadline: %v, want ErrDeadline", err)
	}
	st := p.Stats()
	if st.RejectedDeadline != 1 || st.ByClass[ClassHigh].Shed != 1 {
		t.Fatalf("deadline ledger: rejected %d, class shed %d, want 1/1",
			st.RejectedDeadline, st.ByClass[ClassHigh].Shed)
	}

	if err := p.SubmitJob(context.Background(), Job{
		Fn:       func(c *wsrt.Ctx) {},
		Deadline: time.Now().Add(time.Hour),
	}); err != nil {
		t.Fatalf("generous deadline: %v", err)
	}
	if err := p.SubmitJob(context.Background(), Job{Fn: func(c *wsrt.Ctx) {}}); err != nil {
		t.Fatalf("no deadline: %v", err)
	}
	if got := p.Stats().Admitted; got != 2 {
		t.Fatalf("admitted = %d, want 2", got)
	}
	drain(t, p)
}

// TestPoolDeadlineOverloadScaling pins the overload scaling of the wait
// prediction: with desire at twice capacity, a deadline that clears the
// raw p99 but not the scaled estimate is rejected.
func TestPoolDeadlineOverloadScaling(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 8})
	for i := 0; i < 100; i++ {
		p.latHist.Observe(0.1)
	}
	cap := p.Capacity()
	p.lastDesire.Store(int64(2 * cap))
	// Raw estimate ~0.1s, scaled ~0.2s or more: 150ms clears the former
	// but not the latter.
	wait, late := p.missesDeadline(time.Now().Add(150 * time.Millisecond))
	if !late {
		t.Fatalf("overload-scaled wait %dns did not reject a 150ms deadline", wait)
	}
	if wait < int64(150*time.Millisecond) {
		t.Fatalf("scaled wait = %v, want >= 150ms", time.Duration(wait))
	}
	p.lastDesire.Store(0)
	if _, late := p.missesDeadline(time.Now().Add(150 * time.Millisecond)); late {
		t.Fatal("unscaled 150ms deadline rejected against a 0.1s p99")
	}
	drain(t, p)
}

// TestPoolPriorityStarvationHammer floods the pool with low-class work
// under an armed shed ladder and checks that high-class submissions keep
// being admitted: a saturated low-class flood may bounce high-class jobs
// off the full queue, but it can never starve them through the ladder
// (run under -race in CI).
func TestPoolPriorityStarvationHammer(t *testing.T) {
	p := quietPool(t, Config{Name: "t", QueueCap: 4, ShedQuanta: 2,
		Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
	var stop atomic.Bool
	var floodShed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				err := p.Submit(context.Background(), func(c *wsrt.Ctx) { c.Compute(5_000) })
				if errors.Is(err, ErrOverloaded) {
					floodShed.Add(1)
				}
			}
		}()
	}

	// Keep the ladder at exactly level 1 — pump saturated quanta only
	// while it is unarmed, so pinned never accumulates past one rung and
	// the high class is never ladder-eligible.
	highAdmitted := 0
	deadline := time.Now().Add(30 * time.Second)
	for highAdmitted < 5 || floodShed.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("hammer timed out: %d high admitted, %d low shed",
				highAdmitted, floodShed.Load())
		}
		if p.shedLevel.Load() == 0 {
			// Hold pinned at one rung below arming so a pump while the queue
			// is saturated arms exactly level 1 — the level the flood is shed
			// at and the high class sails through. pinned is only ever
			// touched from this goroutine (the 1h quantum keeps the helper
			// quiet), so the write is race-free.
			p.ladder.pinned = p.cfg.ShedQuanta - 1
			pinQuantum(p)
			continue
		}
		err := p.SubmitJob(context.Background(),
			Job{Fn: func(c *wsrt.Ctx) {}, Class: ClassHigh})
		switch {
		case err == nil:
			highAdmitted++
		case errors.Is(err, ErrQueueFull):
			// Queue contention, not starvation: the flood holds the slots.
		case errors.Is(err, ErrOverloaded):
			t.Fatalf("high-class job shed at ladder level %d", p.shedLevel.Load())
		default:
			t.Fatalf("high submit: %v", err)
		}
	}
	stop.Store(true)
	wg.Wait()

	st := p.Stats()
	if st.ByClass[ClassHigh].Shed != 0 {
		t.Fatalf("high-class shed count = %d, want 0", st.ByClass[ClassHigh].Shed)
	}
	if st.ByClass[ClassLow].Shed == 0 {
		t.Fatal("flood was never shed — the ladder never armed")
	}
	if st.ByClass[ClassHigh].Admitted < 5 {
		t.Fatalf("high-class admitted = %d, want >= 5", st.ByClass[ClassHigh].Admitted)
	}
	drain(t, p)
}
