package core

import (
	"testing"

	"palirria/internal/topo"
)

// snap builds a Snapshot over the standard 8x4 simulator platform with the
// given diaspora; fill sets per-worker queue lengths.
func snap(t testing.TB, d int, fill func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot)) *Snapshot {
	t.Helper()
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotment(m, 20, d)
	if err != nil {
		t.Fatal(err)
	}
	c := topo.Classify(a)
	ws := make(map[topo.CoreID]*WorkerSnapshot, a.Size())
	for _, id := range a.Members() {
		ws[id] = &WorkerSnapshot{ID: id}
	}
	if fill != nil {
		fill(c, ws)
	}
	// Mirror the platforms: the boundary value counts toward the quantum's
	// high-water mark.
	for _, s := range ws {
		if s.QueueLen > s.MaxQueueLen {
			s.MaxQueueLen = s.QueueLen
		}
	}
	return &Snapshot{
		Allotment:     a,
		Class:         c,
		Workers:       ws,
		QuantumCycles: 50000,
	}
}

func TestPalirriaDecreaseWhenZEmpty(t *testing.T) {
	// All Z queues empty, some F/X queues non-empty: decrease.
	p := NewPalirria()
	s := snap(t, 3, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.X() {
			if !c.Class(w).IsZ() {
				ws[w].QueueLen = 5
			}
		}
		for _, w := range c.F() {
			ws[w].QueueLen = 2
		}
		// Z members all 0 by default.
	})
	if got := p.Decide(s); got != Decrease {
		t.Fatalf("Decide = %v, want Decrease", got)
	}
	// Estimate maps decrease to the shrunk size (d=2 on 8x4 -> 12).
	if got := p.Estimate(s); got != 12 {
		t.Fatalf("Estimate = %d, want 12", got)
	}
}

func TestPalirriaIncreaseWhenXAboveL(t *testing.T) {
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		// Every X member's queue exceeds its L = µ(O_i); every Z member
		// keeps at least one task so the decrease condition fails.
		for _, w := range c.X() {
			ws[w].QueueLen = len(c.OuterVictims(w)) + 1
		}
		for _, w := range c.Z() {
			if ws[w].QueueLen == 0 {
				ws[w].QueueLen = 1
			}
		}
	})
	if got := p.Decide(s); got != Increase {
		t.Fatalf("Decide = %v, want Increase", got)
	}
	// d=2 (12 workers) grows to d=3 (20 workers) on the 8x4 platform.
	if got := p.Estimate(s); got != 20 {
		t.Fatalf("Estimate = %d, want 20", got)
	}
}

func TestPalirriaBalancedWhenOneXBelowL(t *testing.T) {
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for i, w := range c.X() {
			if i == 0 {
				ws[w].QueueLen = 0 // this one breaks the increase condition
			} else {
				ws[w].QueueLen = len(c.OuterVictims(w)) + 2
			}
		}
		for _, w := range c.Z() {
			if ws[w].QueueLen == 0 {
				ws[w].QueueLen = 1
			}
		}
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep", got)
	}
	if got := p.Estimate(s); got != s.Allotment.Size() {
		t.Fatalf("Estimate = %d, want unchanged %d", got, s.Allotment.Size())
	}
}

func TestPalirriaBalancedWhenZNonEmptyAndXLow(t *testing.T) {
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Z() {
			ws[w].QueueLen = 1
		}
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep", got)
	}
}

func TestPalirriaFiveWorkerLZero(t *testing.T) {
	// Paper §4.1.1: on the minimal allotment all workers are X with L = 0,
	// so "unless all their task-queues are empty, the allotment will always
	// increase"... as long as every X queue is non-empty.
	p := NewPalirria()
	s := snap(t, 1, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.X() {
			ws[w].QueueLen = 1 // one task suffices: L = µ(O) = 0
		}
	})
	for _, w := range s.Class.X() {
		if l := p.ThresholdL(s, w); l != 0 {
			t.Fatalf("L for %d = %d, want 0", w, l)
		}
	}
	if got := p.Decide(s); got != Increase {
		t.Fatalf("Decide = %v, want Increase", got)
	}
	// All queues empty -> the same workers are also Z -> decrease... but
	// the minimal allotment cannot shrink, so Estimate keeps the size.
	s2 := snap(t, 1, nil)
	if got := p.Decide(s2); got != Decrease {
		t.Fatalf("Decide(empty) = %v, want Decrease", got)
	}
	if got := p.Estimate(s2); got != s2.Allotment.Size() {
		t.Fatalf("Estimate(empty) = %d, want clamped %d", got, s2.Allotment.Size())
	}
}

func TestPalirriaLoopyResistance(t *testing.T) {
	// LOOPY keeps exactly one task in some queues. Beyond the minimal
	// allotment, interior X workers have µ(O) >= 1, so a single queued task
	// never exceeds L and the allotment must not grow.
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Allotment().Members() {
			ws[w].QueueLen = 1
		}
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep (LOOPY must not trigger growth)", got)
	}
}

func TestPalirriaLOffset(t *testing.T) {
	// LOffset = 1 raises every threshold: a queue that barely exceeded
	// µ(O_i) no longer triggers an increase.
	p := &Palirria{LOffset: 1}
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.X() {
			ws[w].QueueLen = len(c.OuterVictims(w)) + 1
		}
		for _, w := range c.Z() {
			if ws[w].QueueLen == 0 {
				ws[w].QueueLen = 1
			}
		}
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep with LOffset=1", got)
	}
}

func TestPalirriaMissingWorkerSnapshots(t *testing.T) {
	// Workers without snapshots (not yet bootstrapped) block increase and
	// count as empty for decrease.
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.X() {
			ws[w].QueueLen = 10
		}
		for _, w := range c.Z() {
			ws[w].QueueLen = 1
		}
		delete(ws, c.X()[0])
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep when an X snapshot is missing", got)
	}
}

func TestPalirriaEstimateCost(t *testing.T) {
	// The inspected set is at most |X| + |Z|: the low-overhead claim.
	p := NewPalirria()
	s := snap(t, 3, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Allotment().Members() {
			ws[w].QueueLen = 1
		}
	})
	p.Decide(s)
	max := len(s.Class.X()) + len(s.Class.Z())
	if got := p.EstimateCost(); got == 0 || got > max {
		t.Fatalf("EstimateCost = %d, want in (0, %d]", got, max)
	}
	if got, size := p.EstimateCost(), s.Allotment.Size(); got >= size {
		t.Fatalf("EstimateCost %d not below allotment size %d", got, size)
	}
}

// TestPalirriaAllocatesNothing holds the per-quantum decision to reads of
// what the allotment stored when it was built: on the 8x4 27-worker
// allotment Decide, Estimate and ThresholdL allocate nothing, whichever
// way the DMC goes, and Estimate answers the neighbouring zone sizes.
func TestPalirriaAllocatesNothing(t *testing.T) {
	cases := []struct {
		want Decision
		size int
		mark int // every worker's µ(Q) high-water mark
		busy bool
	}{
		{Keep, 27, 0, true},
		{Increase, 30, 100, true},
		{Decrease, 20, 0, false},
	}
	for _, tc := range cases {
		s := snap(t, 4, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
			for _, w := range ws {
				w.MaxQueueLen, w.Busy = tc.mark, tc.busy
			}
		})
		p := NewPalirria()
		if got := p.Decide(s); got != tc.want {
			t.Fatalf("Decide = %v, want %v", got, tc.want)
		}
		if got := p.Estimate(s); got != tc.size {
			t.Fatalf("%v: Estimate = %d, want %d", tc.want, got, tc.size)
		}
		w := s.Class.X()[0]
		if allocs := testing.AllocsPerRun(100, func() {
			p.Decide(s)
			p.Estimate(s)
			p.ThresholdL(s, w)
		}); allocs != 0 {
			t.Fatalf("%v: Decide+Estimate+ThresholdL allocate %.0f times", tc.want, allocs)
		}
	}
}

func TestPalirriaName(t *testing.T) {
	if NewPalirria().Name() != "palirria" {
		t.Fatal("name wrong")
	}
	NewPalirria().Granted(5) // no-op, must not panic
}

func TestDecisionHelpers(t *testing.T) {
	if DecisionOf(5, 12) != Increase || DecisionOf(12, 5) != Decrease || DecisionOf(5, 5) != Keep {
		t.Fatal("DecisionOf wrong")
	}
	if Increase.String() != "increase" || Decrease.String() != "decrease" || Keep.String() != "keep" {
		t.Fatal("Decision strings wrong")
	}
	if Decision(7).String() != "Decision(7)" {
		t.Fatal("unknown decision string wrong")
	}
}

// TestDMCMonotonicity: adding queued tasks to X workers can only move the
// decision toward Increase; emptying Z bags can only move it toward
// Decrease. Property-checked over random fill levels.
func TestDMCMonotonicity(t *testing.T) {
	p := NewPalirria()
	base := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Allotment().Members() {
			ws[w].QueueLen = 1
			ws[w].MaxQueueLen = 1
			ws[w].Busy = true
		}
	})
	d0 := p.Decide(base)
	// Raise every X worker's high-water mark above any threshold.
	boosted := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Allotment().Members() {
			ws[w].QueueLen = 1
			ws[w].MaxQueueLen = 1
			ws[w].Busy = true
		}
		for _, w := range c.X() {
			ws[w].MaxQueueLen = 100
		}
	})
	d1 := p.Decide(boosted)
	if d1 < d0 {
		t.Fatalf("boosting X queues moved decision down: %v -> %v", d0, d1)
	}
	if d1 != Increase {
		t.Fatalf("fully boosted X must increase, got %v", d1)
	}
	// Empty every Z bag.
	drained := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		for _, w := range c.Allotment().Members() {
			ws[w].QueueLen = 1
			ws[w].MaxQueueLen = 1
			ws[w].Busy = true
		}
		for _, w := range c.Z() {
			ws[w].QueueLen = 0
			ws[w].Busy = false
		}
	})
	d2 := p.Decide(drained)
	if d2 != Decrease {
		t.Fatalf("drained Z must decrease, got %v", d2)
	}
}

// TestDMCDecreaseRequiresIdleZ: a single busy Z worker blocks removal.
func TestDMCDecreaseRequiresIdleZ(t *testing.T) {
	p := NewPalirria()
	s := snap(t, 2, func(c *topo.Classification, ws map[topo.CoreID]*WorkerSnapshot) {
		ws[c.Z()[0]].Busy = true // executing a long leaf, queue empty
	})
	if got := p.Decide(s); got != Keep {
		t.Fatalf("Decide = %v, want Keep (busy rim worker is utilized)", got)
	}
}
