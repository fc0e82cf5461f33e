// Package serve is the persistent job-serving layer over the real
// work-stealing runtime: the production shape of the paper's motivating
// scenario (§1), a server whose parallelism fluctuates with incoming
// load.
//
// A Pool keeps a wsrt.Runtime resident in persistent mode and admits a
// continuous stream of fork/join jobs through Submit, with three
// backpressure stages:
//
//  1. a bounded admission queue — Submit fails fast with ErrQueueFull
//     when the pool already holds QueueCap jobs (queued plus running);
//  2. estimator-driven load shedding — the Palirria desire signal is the
//     overload detector: when the filtered desire has been pinned at the
//     maximum grantable allotment for ShedQuanta consecutive quanta while
//     the admission queue is saturated, the pool starts rejecting with
//     ErrOverloaded until desire falls below capacity again (or the pool
//     drains empty — the recovery path for pools whose minimum allotment
//     already equals their capacity);
//  3. per-job deadlines — Submit honours its context: jobs cancelled
//     before they start are skipped without running.
//
// Drain stops admission, waits for every in-flight job, then shuts the
// runtime down and releases its allotment — no admitted job is lost.
//
// Tenancy runs the paper's two-level architecture (Fig. 2) on real
// goroutines: several resident pools register with a sysched.Arbiter over
// one arbitration mesh, and a re-arbitration loop periodically
// redistributes worker shares according to each pool's live desire,
// imposing the shares as dynamic worker caps on the pools' runtimes.
package serve

import (
	"errors"
	"time"

	"palirria/internal/wsrt"
)

// Errors returned by Pool.Submit and Pool.Drain.
var (
	// ErrQueueFull reports an admission queue at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrOverloaded reports desire-driven load shedding: the estimator has
	// been demanding the maximum allotment for ShedQuanta quanta and the
	// queue is saturated.
	ErrOverloaded = errors.New("serve: pool overloaded, shedding load")
	// ErrDraining reports a Submit on a pool that is draining or closed.
	ErrDraining = errors.New("serve: pool is draining")
	// ErrDiscarded reports a job that was admitted but discarded before it
	// ran because the pool shut down.
	ErrDiscarded = errors.New("serve: job discarded at shutdown")
	// ErrDeadline reports a job rejected at admission because the
	// estimator's desire plus the observed submit-to-start p99 predicted it
	// could not start before its deadline.
	ErrDeadline = errors.New("serve: job cannot start before its deadline")
	// ErrCancelled reports a DAG node cancelled because a predecessor did
	// not complete (it was discarded, cancelled, or the pool shut down).
	ErrCancelled = errors.New("serve: job cancelled by a failed predecessor")
	// ErrExpired reports a submission refused at the admission gate
	// because its context was already done: nothing was admitted or
	// counted. It always comes wrapped together with ctx.Err(), so
	// errors.Is matches both it and context.Canceled or
	// context.DeadlineExceeded, while a job the context cancelled after
	// admission returns the bare ctx.Err().
	ErrExpired = errors.New("serve: context done before admission")
	// ErrBadDAG reports a structurally invalid DAG: an out-of-range
	// dependency index or a dependency cycle. Nothing was admitted.
	ErrBadDAG = errors.New("serve: invalid job graph")
)

// Class is a job's priority class. The shed ladder drops low-class work
// first: as overload persists (the filtered desire stays pinned at the
// maximum grantable allotment with a saturated queue), the pool escalates
// one class per ShedQuanta further quanta — low is shed at level 1,
// normal at level 2, high only at level 3. Plain Submit/SubmitBatch
// submissions are ClassLow, preserving the original single-latch
// behaviour for unclassed work.
type Class int32

const (
	// ClassLow is the default (and first shed) class.
	ClassLow Class = iota
	// ClassNormal is shed only after low-class work is already being shed.
	ClassNormal
	// ClassHigh is shed last, only at the deepest overload level.
	ClassHigh
	// NumClasses is the number of priority classes.
	NumClasses
)

var classNames = [NumClasses]string{ClassLow: "low", ClassNormal: "normal", ClassHigh: "high"}

// String names the class (also its wire and metric label form).
func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return "low"
}

// ParseClass maps a wire name ("low", "normal", "high"; "" is low) back
// to its Class.
func ParseClass(s string) (Class, bool) {
	if s == "" {
		return ClassLow, true
	}
	for c, name := range classNames {
		if s == name {
			return Class(c), true
		}
	}
	return ClassLow, false
}

// clamp returns the class forced into the valid range, so counters
// indexed by it never go out of bounds on a caller-constructed value.
func (c Class) clamp() Class {
	if c < 0 {
		return ClassLow
	}
	if c >= NumClasses {
		return ClassHigh
	}
	return c
}

// Job is one classed, optionally deadlined submission for
// Pool.SubmitJob. The zero value (beyond Fn) is a plain low-class job
// without a deadline — exactly what Submit builds.
type Job struct {
	// Fn is the job body.
	Fn wsrt.Func
	// Class is the priority class consulted by the shed ladder.
	Class Class
	// Deadline, when non-zero, is the latest acceptable start time: at
	// admission the pool predicts the submit-to-start wait from the
	// observed p99 scaled by the estimator's overload ratio
	// (desire/capacity), and rejects with ErrDeadline — publishing a
	// deadline-shed stream event — when the job cannot start in time.
	Deadline time.Time
}

// DAGNode is one node of a SubmitDAG job graph: a body plus the indices
// of the nodes that must complete before it may start.
type DAGNode struct {
	// Fn is the node body.
	Fn wsrt.Func
	// Deps lists predecessor indices into the submitted slice. An empty
	// list marks a root, released immediately at admission.
	Deps []int
	// Class is the node's priority class (the DAG is admitted or shed as
	// a unit on its highest class; per-node classes label events and
	// counters).
	Class Class
	// Deadline, when non-zero, applies Job's deadline admission check to
	// this node.
	Deadline time.Time
}

func nowNS() int64 { return time.Now().UnixNano() }
