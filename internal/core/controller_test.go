package core

import (
	"slices"
	"testing"

	"palirria/internal/metrics"
	"palirria/internal/topo"
)

func TestFilterIncreaseImmediate(t *testing.T) {
	f := NewFilter()
	if got := f.Apply(5, 12); got != 12 {
		t.Fatalf("Apply(5,12) = %d, want 12 (increase passes immediately)", got)
	}
}

func TestFilterDecreaseDebounced(t *testing.T) {
	f := NewFilter()
	if got := f.Apply(12, 5); got != 12 {
		t.Fatalf("first decrease passed: %d", got)
	}
	if got := f.Apply(12, 5); got != 5 {
		t.Fatalf("second consecutive decrease blocked: %d", got)
	}
}

func TestFilterStreakBrokenByKeep(t *testing.T) {
	f := NewFilter()
	f.Apply(12, 5)  // decrease #1
	f.Apply(12, 12) // keep resets the streak
	if got := f.Apply(12, 5); got != 12 {
		t.Fatalf("decrease after broken streak passed: %d", got)
	}
	if got := f.Apply(12, 5); got != 5 {
		t.Fatalf("second decrease after reset blocked: %d", got)
	}
}

func TestFilterStreakBrokenByOpposite(t *testing.T) {
	f := NewFilter()
	f.Apply(12, 5) // decrease #1
	// An increase interrupts: passes immediately and resets.
	if got := f.Apply(12, 20); got != 20 {
		t.Fatalf("increase blocked: %d", got)
	}
	if got := f.Apply(20, 12); got != 20 {
		t.Fatalf("decrease #1 after increase passed: %d", got)
	}
}

func TestFilterConfiguredCounts(t *testing.T) {
	f := &Filter{ConfirmIncrease: 3, ConfirmDecrease: 1}
	if got := f.Apply(5, 12); got != 5 {
		t.Fatal("increase 1/3 passed")
	}
	if got := f.Apply(5, 12); got != 5 {
		t.Fatal("increase 2/3 passed")
	}
	if got := f.Apply(5, 12); got != 12 {
		t.Fatal("increase 3/3 blocked")
	}
	if got := f.Apply(12, 5); got != 5 {
		t.Fatal("decrease with confirm=1 blocked")
	}
}

func TestFilterZeroCountClamped(t *testing.T) {
	f := &Filter{ConfirmIncrease: 0, ConfirmDecrease: 0}
	if got := f.Apply(5, 12); got != 12 {
		t.Fatal("confirm 0 must behave like 1")
	}
}

func TestFilterReset(t *testing.T) {
	f := NewFilter()
	f.Apply(12, 5)
	f.Reset()
	if got := f.Apply(12, 5); got != 12 {
		t.Fatal("reset did not clear the streak")
	}
}

// fakeEst returns a scripted sequence of desires.
type fakeEst struct {
	script  []int
	i       int
	granted []int
}

func (f *fakeEst) Name() string { return "fake" }
func (f *fakeEst) Estimate(s *Snapshot) int {
	v := f.script[f.i%len(f.script)]
	f.i++
	return v
}
func (f *fakeEst) Granted(w int) { f.granted = append(f.granted, w) }

func TestControllerStepAndGranted(t *testing.T) {
	est := &fakeEst{script: []int{12, 5, 5, 3}}
	c := NewController(est)
	s := snap(t, 1, nil) // size 5
	if got := c.Step(s); got != 12 {
		t.Fatalf("step 1 = %d, want 12", got)
	}
	c.Granted(12)
	// Decrease takes two consecutive quanta through the default filter.
	s12 := snap(t, 2, nil)
	if got := c.Step(s12); got != 12 {
		t.Fatalf("step 2 = %d, want filtered 12", got)
	}
	if got := c.Step(s12); got != 5 {
		t.Fatalf("step 3 = %d, want 5", got)
	}
	// Granted informs the estimator but leaves no log entry: the bench
	// probe calls it in a tight loop.
	if n := len(c.Decisions().Decisions()); n != 0 {
		t.Fatalf("Granted logged %d decisions, want 0", n)
	}
	want := []metrics.Decision{
		{Time: 300, Raw: 5, Desired: 5, Granted: 5},
		// The filter holds the first quantum of a decrease back: the
		// record keeps both stages.
		{Time: 400, Raw: 3, Desired: 5, Granted: 5},
	}
	if got := c.Record(300, 5); got != want[0] {
		t.Fatalf("Record = %+v, want %+v", got, want[0])
	}
	if got := c.Step(s); got != 5 {
		t.Fatalf("step 4 = %d, want filtered 5", got)
	}
	if got := c.Record(400, 5); got != want[1] {
		t.Fatalf("Record = %+v, want %+v", got, want[1])
	}
	if ds := c.Decisions().Decisions(); !slices.Equal(ds, want) {
		t.Fatalf("Decisions = %+v, want %+v", ds, want)
	}
	if !slices.Equal(est.granted, []int{12, 5, 5}) {
		t.Fatalf("granted log = %v", est.granted)
	}
	// A fixed-allotment run has no controller; reports still get a log.
	var none *Controller
	if l := none.Decisions(); l == nil || len(l.Decisions()) != 0 {
		t.Fatalf("nil controller's log = %v, want empty", l)
	}
}

// TestControllerSampleWastedDelta pins the shared snapshot builder: the
// platform reports cumulative wasted counters, the controller turns them
// into per-quantum deltas per core, and a core the read callback declines
// is absent from the snapshot.
func TestControllerSampleWastedDelta(t *testing.T) {
	a := snap(t, 1, nil).Allotment
	skip := a.Members()[0]
	total := map[topo.CoreID]int64{}
	read := func(ws *WorkerSnapshot) bool {
		ws.QueueLen = 1
		ws.WastedCycles = total[ws.ID]
		return ws.ID != skip
	}
	c := NewController(&fakeEst{script: []int{5}})
	for _, id := range a.Members() {
		total[id] = 100
	}
	s := c.Sample(a, 50, 1000, read)
	if s.Allotment != a || s.QuantumCycles != 50 || s.Time != 1000 || s.Class == nil {
		t.Fatalf("snapshot header = %+v", s)
	}
	if len(s.Workers) != a.Size()-1 || s.Workers[skip] != nil {
		t.Fatalf("declined core %d sampled: %d workers of %d", skip, len(s.Workers), a.Size())
	}
	for _, id := range a.Members()[1:] {
		total[id] += int64(id)
	}
	s = c.Sample(a, 50, 1050, read)
	for _, id := range a.Members()[1:] {
		ws := s.Workers[id]
		if ws.ID != id || ws.QueueLen != 1 || ws.WastedCycles != int64(id) {
			t.Fatalf("core %d: %+v, want wasted delta %d", id, ws, id)
		}
	}
}

func TestControllerNilFilter(t *testing.T) {
	est := &fakeEst{script: []int{5}}
	c := &Controller{Est: est}
	s := snap(t, 2, nil) // size 12
	if got := c.Step(s); got != 5 {
		t.Fatalf("unfiltered step = %d, want raw 5", got)
	}
}
