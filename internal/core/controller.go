package core

import (
	"palirria/internal/metrics"
	"palirria/internal/topo"
)

// Filter implements the system-level false-positive logic the paper
// describes in §3: "there is logic implemented to identify specific
// patterns and discard false positives. This mechanism is part of the
// system level, it is independent of the runtime scheduler in place and
// thus the same for both ASTEAL and Palirria implementations."
//
// The pattern it discards is a short burst misread as prolonged behaviour:
// a direction (grow or shrink) must be confirmed for a configurable number
// of consecutive quanta before it is forwarded to the allotment manager.
// Any quantum that breaks the streak resets it. Increases default to
// immediate (missing a burst of parallelism costs performance), decreases
// default to two consecutive confirmations (removing workers on a transient
// dip costs much more to undo).
type Filter struct {
	// ConfirmIncrease is the number of consecutive Increase estimates
	// needed before an increase passes. Minimum 1.
	ConfirmIncrease int
	// ConfirmDecrease is the analogous count for decreases. Minimum 1.
	ConfirmDecrease int

	streak    Decision
	streakLen int
}

// NewFilter returns the default filter (increase immediate, decrease
// debounced over 2 quanta).
func NewFilter() *Filter {
	return &Filter{ConfirmIncrease: 1, ConfirmDecrease: 2}
}

// Apply feeds one per-quantum estimate through the filter. current is the
// present allotment size, desired the estimator's answer; the return value
// is the size to actually request from the system layer.
func (f *Filter) Apply(current, desired int) int {
	d := DecisionOf(current, desired)
	if d == Keep {
		f.streak, f.streakLen = Keep, 0
		return current
	}
	if d == f.streak {
		f.streakLen++
	} else {
		f.streak, f.streakLen = d, 1
	}
	need := f.ConfirmIncrease
	if d == Decrease {
		need = f.ConfirmDecrease
	}
	if need < 1 {
		need = 1
	}
	if f.streakLen >= need {
		f.streakLen = 0 // a fresh change starts a fresh streak
		f.streak = Keep
		return desired
	}
	return current
}

// Reset clears the filter's streak state.
func (f *Filter) Reset() { f.streak, f.streakLen = Keep, 0 }

// Controller combines an estimator with the false-positive filter. Both
// execution platforms drive it once per quantum through the same three
// calls: Sample the allotment, Step, and Record the grant.
type Controller struct {
	// Est is the wrapped estimator.
	Est Estimator
	// Filter is the false-positive filter; nil disables filtering (used by
	// the filter ablation).
	Filter *Filter

	// cur is the quantum in progress: Step fills its Raw and Desired,
	// Record its Time and Granted before logging it.
	cur metrics.Decision
	// wasted holds each core's cumulative wasted counter as of its last
	// Sample; log holds every Recorded quantum.
	wasted map[topo.CoreID]int64
	log    metrics.Log
}

// NewController returns a controller over est with the default filter.
func NewController(est Estimator) *Controller {
	return &Controller{Est: est, Filter: NewFilter()}
}

// Sample builds the quantum's snapshot of allotment a at time now (both
// in the platform's ticks). read fills the reading of one member, whose
// ID is preset, with WastedCycles as the worker's cumulative counter, and
// reports false when the core holds no worker of this controller's job.
// Sample keeps each core's previous counter and stores the quantum's
// delta in WastedCycles.
func (c *Controller) Sample(a *topo.Allotment, quantum, now int64, read func(*WorkerSnapshot) bool) *Snapshot {
	if c.wasted == nil {
		c.wasted = map[topo.CoreID]int64{}
	}
	ws := make(map[topo.CoreID]*WorkerSnapshot, a.Size())
	for _, id := range a.Members() {
		w := &WorkerSnapshot{ID: id}
		if !read(w) {
			continue
		}
		w.WastedCycles, c.wasted[id] = w.WastedCycles-c.wasted[id], w.WastedCycles
		ws[id] = w
	}
	return &Snapshot{
		Allotment:     a,
		Class:         topo.Classify(a),
		Workers:       ws,
		QuantumCycles: quantum,
		Time:          now,
	}
}

// Step runs one quantum: estimate, filter, and return the worker count to
// request. Callers must afterwards inform the estimator of the actual grant
// via Record (or Granted, which leaves no log entry).
func (c *Controller) Step(s *Snapshot) int {
	raw := c.Est.Estimate(s)
	desired := raw
	if c.Filter != nil {
		desired = c.Filter.Apply(s.Allotment.Size(), raw)
	}
	c.cur.Raw, c.cur.Desired = raw, desired
	return desired
}

// Granted forwards the grant outcome to the estimator.
func (c *Controller) Granted(workers int) { c.Est.Granted(workers) }

// Record closes a quantum at time now: it forwards the granted size to
// the estimator, as Granted does, and appends the quantum's decision to
// the log and returns it.
func (c *Controller) Record(now int64, granted int) metrics.Decision {
	c.Est.Granted(granted)
	c.cur.Time, c.cur.Granted = now, granted
	c.log.Add(c.cur)
	return c.cur
}

// Decisions returns the log of Recorded quanta. A nil controller, a run
// at a fixed allotment, has an empty log.
func (c *Controller) Decisions() *metrics.Log {
	if c == nil {
		return &metrics.Log{}
	}
	return &c.log
}
