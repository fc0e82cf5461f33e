// Package core contains the paper's primary contribution: the Palirria
// resource estimator built on the Diaspora Malleability Conditions (DMC),
// together with the estimator interface both execution platforms drive and
// the quantum controller that invokes estimators on a fixed interval.
//
// The two-level architecture of the paper splits scheduling into the
// application layer — the work-stealing runtime plus an estimator that
// infers the workload's true resource requirements — and the system layer,
// which owns worker grants (package sysched). Estimators see the world only
// through a Snapshot taken at the end of each quantum and answer with the
// worker count they can utilize.
package core

import (
	"fmt"

	"palirria/internal/topo"
)

// WorkerSnapshot is one worker's state at a quantum boundary.
type WorkerSnapshot struct {
	// ID is the worker's core.
	ID topo.CoreID
	// QueueLen is µ(Q) at the quantum boundary: the number of stealable
	// tasks in the worker's queue right now.
	QueueLen int
	// MaxQueueLen is a high-water mark of µ(Q), maintained for free by
	// the spawn operation ("its calculation is performed during the spawn
	// and sync operations", §1). The DMC increase condition reads this
	// mark: it asks whether work flowed through the worker beyond its
	// threshold at any point, not whether the sampling instant happened
	// to catch it. The platforms differ in which window the mark covers
	// (ROADMAP item 15 settles this):
	//   - the simulator resets it at every boundary, so it covers exactly
	//     the ending quantum;
	//   - wsrt resets it lazily, on the worker's first spawn of a quantum
	//     or when it parks, so a worker that has done neither since its
	//     last spawn still reports that spawn's mark.
	MaxQueueLen int
	// Busy reports that the worker is executing a task at the boundary.
	// The DMC decrease condition treats a worker as underutilized only
	// when its bag is empty: no queued tasks and nothing in execution — a
	// rim worker midway through a long leaf is utilized even though its
	// queue is empty.
	Busy bool
	// WastedCycles is the worker's wasted effort during the ending
	// quantum; Controller.Sample turns the platform's cumulative counter
	// into this delta. The platforms count different things (ROADMAP
	// item 15 settles this):
	//   - the simulator uses ASTEAL's definition, cycles spent searching
	//     for work plus conducting successful steals;
	//   - wsrt reports nanoseconds of search time plus time parked idle.
	WastedCycles int64
	// Draining reports that the worker was removed and is finishing its
	// remaining queue.
	Draining bool
}

// Snapshot is the estimator's complete view at a quantum boundary.
type Snapshot struct {
	// Allotment is the currently granted allotment (draining workers
	// excluded).
	Allotment *topo.Allotment
	// Class is the classification of Allotment, built with it
	// (topo.Classify reads it).
	Class *topo.Classification
	// Workers holds per-worker state for every granted member, indexed by
	// core id (absent cores map to nil).
	Workers map[topo.CoreID]*WorkerSnapshot
	// QuantumCycles is the quantum length in cycles.
	QuantumCycles int64
	// Time is the current simulation or wall time in cycles.
	Time int64
}

// Estimator estimates a workload's resource requirements once per quantum.
type Estimator interface {
	// Name identifies the estimator in reports ("palirria", "asteal").
	Name() string
	// Estimate returns the desired total worker count for the next
	// quantum, given the end-of-quantum snapshot. The system layer grants
	// whole zones, so the returned value is a target the grant rounds.
	Estimate(s *Snapshot) int
	// Granted informs the estimator of the system's decision: the worker
	// count actually allotted for the next quantum. ASTEAL derives its
	// satisfied/deprived classification from this.
	Granted(workers int)
}

// Decision is the coarse direction of an estimate, used in traces.
type Decision int

const (
	// Decrease shrinks the allotment by one zone.
	Decrease Decision = iota - 1
	// Keep leaves the allotment unchanged.
	Keep
	// Increase grows the allotment by one zone.
	Increase
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case Decrease:
		return "decrease"
	case Keep:
		return "keep"
	case Increase:
		return "increase"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// DecisionOf classifies a desired worker count against the current size.
func DecisionOf(current, desired int) Decision {
	switch {
	case desired < current:
		return Decrease
	case desired > current:
		return Increase
	default:
		return Keep
	}
}
