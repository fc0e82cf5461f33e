// Package metrics defines the run record shared by both execution
// platforms: the per-worker cycle accounting, the allotment size over time
// (Figs. 5(c)/7(c)) and the per-quantum estimator decisions, plus the
// derived quantities the paper's evaluation reports. It imports no other
// package of the module.
//
// Cycle taxonomy (paper §6): "Useful are the cycles spent successfully
// stealing and processing tasks". We therefore classify compute, spawn and
// sync bookkeeping, task setup, migration warm-up and successful steals as
// useful, and failed steal probes plus idle backoff as wasted. ASTEAL's own
// decision metric additionally counts successful-steal cycles as wasted
// (paper §3.1); the asteal package composes that view from the same
// counters.
package metrics

import "fmt"

// Category classifies where a worker's cycles went.
type Category int

const (
	// Compute is task work (OpCompute cycles).
	Compute Category = iota
	// Spawn is the bookkeeping of placing a spawned task in the queue.
	Spawn
	// Sync is join bookkeeping (pop-on-sync, checking stolen children).
	Sync
	// TaskInit is frame setup when starting or inlining a task.
	TaskInit
	// StealSuccess is the cost of successful steal transfers.
	StealSuccess
	// Migration is cache warm-up charged when a stolen task first runs on
	// its thief (NUMA model only).
	Migration
	// Contention is the slowdown a busy worker suffers from thieves
	// hammering its queue (probe and steal taxes).
	Contention
	// ProbeFail is time spent probing victims that had no stealable task.
	ProbeFail
	// Idle is backoff time after an unsuccessful round of probes. Idle is
	// neither useful nor wasted under the paper's definitions: a worker
	// backing off is asleep, not executing wasteful operations.
	Idle

	// NumCategories is the number of categories.
	NumCategories
)

// String names the category.
func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Spawn:
		return "spawn"
	case Sync:
		return "sync"
	case TaskInit:
		return "taskinit"
	case StealSuccess:
		return "steal"
	case Migration:
		return "migration"
	case Contention:
		return "contention"
	case ProbeFail:
		return "probefail"
	case Idle:
		return "idle"
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// WorkerStats accumulates one worker's counters.
type WorkerStats struct {
	// Cycles per category.
	Cycles [NumCategories]int64
	// Steals counts successful steals by this worker.
	Steals int64
	// FailedProbes counts probes of victims with no stealable task.
	FailedProbes int64
	// StolenFrom counts tasks other workers stole from this worker.
	StolenFrom int64
	// TasksRun counts tasks this worker executed (spawned-inline, popped,
	// called or stolen).
	TasksRun int64
	// JoinedAt is the time the worker entered the allotment; RetiredAt the
	// time it exited (0 / -1 when still active).
	JoinedAt  int64
	RetiredAt int64
}

// Useful returns the useful cycles per the paper's Figs. 6/8 definition:
// cycles spent successfully stealing and processing tasks, including the
// contention and migration overheads suffered while doing so.
func (w *WorkerStats) Useful() int64 {
	return w.Cycles[Compute] + w.Cycles[Spawn] + w.Cycles[Sync] +
		w.Cycles[TaskInit] + w.Cycles[StealSuccess] + w.Cycles[Migration] +
		w.Cycles[Contention]
}

// Wasted returns the wasted cycles per the paper's Figs. 5(b)/7(b) metric:
// cycles actively spent on non-productive operations, i.e. trying to steal
// from victims that have no stealable tasks. Backoff sleep is not active
// spending and is excluded.
func (w *WorkerStats) Wasted() int64 {
	return w.Cycles[ProbeFail]
}

// AStealWasted returns the cycles ASTEAL's decision metric counts as
// wasted: searching for work (probing and the backoff between rounds) plus
// conducting successful steals (§3.1).
func (w *WorkerStats) AStealWasted() int64 {
	return w.Cycles[ProbeFail] + w.Cycles[Idle] + w.Cycles[StealSuccess]
}

// Total returns all accounted cycles.
func (w *WorkerStats) Total() int64 {
	var t int64
	for _, c := range w.Cycles {
		t += c
	}
	return t
}

// Add accumulates cycles into a category. Negative amounts panic: counters
// only grow.
func (w *WorkerStats) Add(c Category, cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("metrics: negative cycles %d for %v", cycles, c))
	}
	w.Cycles[c] += cycles
}

// Snapshot returns a copy of the stats (for per-quantum deltas).
func (w *WorkerStats) Snapshot() WorkerStats { return *w }

// Report aggregates a whole run.
type Report struct {
	// ExecCycles is the workload's total execution time in cycles, measured
	// at the source worker like the paper does.
	ExecCycles int64
	// Workers maps worker index (position in the mesh-core table) to stats;
	// only cores that ever participated appear.
	Workers map[int]*WorkerStats
	// MaxWorkers is the peak allotment size during the run.
	MaxWorkers int
	// WorkerCycleArea integrates allotment size over time: the resource
	// usage the accuracy criterion trades against execution time.
	WorkerCycleArea int64
	// TotalTasks counts tasks executed across all workers.
	TotalTasks int64
	// TotalSteals counts successful steals across all workers.
	TotalSteals int64
	// TotalFailedProbes counts failed probes across all workers.
	TotalFailedProbes int64
}

// WastefulnessPercent returns the paper's Fig. 5(b)/7(b) metric: the average
// over workers of each worker's wasted cycles as a percentage of the total
// execution time. Workers that never joined are excluded.
func (r *Report) WastefulnessPercent() float64 {
	if r.ExecCycles <= 0 || len(r.Workers) == 0 {
		return 0
	}
	// Sum in worker-id order: float addition is order-sensitive and map
	// iteration would make the last ulp nondeterministic across runs.
	var sum float64
	n := 0
	for _, id := range r.sortedIDs() {
		ws := r.Workers[id]
		span := workerSpan(ws, r.ExecCycles)
		if span <= 0 {
			continue
		}
		sum += 100 * float64(ws.Wasted()) / float64(r.ExecCycles)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// workerSpan is the time the worker was part of the run.
func workerSpan(ws *WorkerStats, execCycles int64) int64 {
	end := ws.RetiredAt
	if end <= 0 {
		end = execCycles
	}
	return end - ws.JoinedAt
}

// UsefulTotal sums useful cycles over all workers.
func (r *Report) UsefulTotal() int64 {
	var t int64
	for _, ws := range r.Workers {
		t += ws.Useful()
	}
	return t
}

// WastedTotal sums wasted cycles over all workers.
func (r *Report) WastedTotal() int64 {
	var t int64
	for _, ws := range r.Workers {
		t += ws.Wasted()
	}
	return t
}
