package sim

import (
	"fmt"

	"palirria/internal/deque"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/task"
	"palirria/internal/topo"
)

type workerState uint8

const (
	// wsRun: executing the top frame of the stack.
	wsRun workerState = iota
	// wsSteal: out of work, probing victims — or blocked at the sync of a
	// stolen child and leapfrogging (stealing while waiting).
	wsSteal
)

// worker is one simulated worker thread, pinned to its core.
type worker struct {
	id    topo.CoreID
	eng   *engine
	job   *jobState
	state workerState

	// stack holds the frames being executed, innermost last. Frames below
	// the top are either suspended by an inline call or blocked at the
	// sync of a stolen child.
	stack []*frame
	// queue is the WOOL task queue: owner at the bottom, thieves on top.
	queue *deque.Queue[*frame]

	stats metrics.WorkerStats

	// draining marks a removed worker: it may not steal, keeps processing
	// its own queue, remains a victim, and retires when empty (§4.1.1).
	draining bool
	retired  bool

	// victims is the current steal round's candidate list; vIdx the probe
	// position within it.
	victims []topo.CoreID
	vIdx    int
	// backoff is the current exponential backoff; reset when work arrives.
	backoff int64
	// maxQueueLen is the µ(Q) high-water mark since the last quantum
	// boundary, maintained by the spawn path.
	maxQueueLen int
	// tax accumulates contention delays inflicted by thieves, charged at
	// the worker's next activation.
	tax int64
}

func newWorker(e *engine, id topo.CoreID) *worker {
	return &worker{
		id:    id,
		eng:   e,
		queue: deque.MustQueue[*frame](e.queueCap, e.stealableSlots),
	}
}

func (w *worker) top() *frame {
	if len(w.stack) == 0 {
		return nil
	}
	return w.stack[len(w.stack)-1]
}

func (w *worker) pushFrame(f *frame) {
	if len(w.stack) == 0 {
		w.eng.busy++
	}
	w.stack = append(w.stack, f)
	w.stats.TasksRun++
}

func (w *worker) popFrameStack() {
	w.stack[len(w.stack)-1] = nil
	w.stack = w.stack[:len(w.stack)-1]
	if len(w.stack) == 0 {
		w.eng.busy--
	}
}

// step processes one simulator event for this worker at e.now.
func (w *worker) step() {
	// Pay accumulated contention first: thieves hammering this worker's
	// queue delayed whatever it was about to do.
	if w.tax > 0 {
		t := w.tax
		w.tax = 0
		w.stats.Add(metrics.Contention, t)
		w.eng.schedule(w, w.eng.now+t)
		return
	}
	switch w.state {
	case wsRun:
		w.stepRun()
	case wsSteal:
		w.stepSteal()
	}
}

// chargeTax is called by thieves operating on this worker's queue. Only
// busy victims suffer: an idle owner's queue top is not contended.
func (w *worker) chargeTax(cycles int64) {
	if w.state == wsRun && !w.retired {
		w.tax += cycles
	}
}

// stepRun executes the next op of the top frame.
func (w *worker) stepRun() {
	e := w.eng
	f := w.top()
	if f == nil {
		// Nothing to run: fall through to work acquisition.
		w.acquireWork()
		return
	}
	if f.programDone() {
		if f.youngestSpawn() != nil {
			// Implicit join of remaining spawns at task end.
			w.handleSync(f)
			return
		}
		w.completeFrame(f)
		return
	}
	op := f.spec.Ops[f.pc]
	switch op.Kind {
	case task.OpCompute:
		f.pc++
		work := op.Work
		if factor := e.machine.ComputeFactor(f.spec.MemBound, e.busy); factor > 1 {
			work = int64(float64(work) * factor)
		}
		w.stats.Add(metrics.Compute, work)
		e.schedule(w, e.now+work)

	case task.OpSpawn:
		child := e.newFrame(op.Gen(), w.id, f)
		if w.queue.PushBottom(child) {
			child.queued = true
			f.spawns = append(f.spawns, child)
			f.pc++
			if n := w.queue.StealableLen(); n > w.maxQueueLen {
				w.maxQueueLen = n
			}
			w.stats.Add(metrics.Spawn, e.costs.Spawn)
			e.trace(obs.KindSpawn, w.id, topo.NoCore, w.queue.Len(), child.spec.Label)
			e.schedule(w, e.now+e.costs.Spawn)
			return
		}
		// Queue full: WOOL executes the spawn inline like a call. The
		// parent's pc advances when the child completes; the spawn record
		// stays outstanding (already done) so the matching sync joins it.
		child.spawnInline = true
		f.spawns = append(f.spawns, child)
		w.pushFrame(child)
		w.stats.Add(metrics.TaskInit, e.costs.TaskInit)
		e.schedule(w, e.now+e.costs.TaskInit)

	case task.OpCall:
		child := e.newFrame(op.Gen(), w.id, f)
		child.calledInline = true
		w.pushFrame(child)
		w.stats.Add(metrics.TaskInit, e.costs.TaskInit)
		e.schedule(w, e.now+e.costs.TaskInit)

	case task.OpSync:
		w.handleSync(f)

	default:
		panic(fmt.Sprintf("sim: worker %d: bad op kind %v", w.id, op.Kind))
	}
}

// handleSync joins the youngest outstanding spawn of f (explicit OpSync or
// the implicit join at task end).
func (w *worker) handleSync(f *frame) {
	e := w.eng
	c := f.youngestSpawn()
	if c == nil {
		panic(fmt.Sprintf("sim: worker %d: sync with no outstanding spawn", w.id))
	}
	switch {
	case c.done:
		// A thief finished it (or it finished inline earlier): join.
		f.popSpawn()
		e.collect(c)
		f.pc++
		w.stats.Add(metrics.Sync, e.costs.SyncStolen)
		e.schedule(w, e.now+e.costs.SyncStolen)

	case c.queued:
		// Work-first: pop the child from our own queue and run it inline.
		got, ok := w.queue.PopBottom()
		if !ok || got != c {
			panic(fmt.Sprintf("sim: worker %d: queue bottom is not the youngest spawn", w.id))
		}
		c.queued = false
		c.inlineJoin = true
		w.pushFrame(c)
		w.stats.Add(metrics.Sync, e.costs.SyncLocal)
		e.schedule(w, e.now+e.costs.SyncLocal)

	default:
		// Stolen and unfinished: block this frame and leapfrog — steal
		// other work while waiting (unless draining, in which case the
		// worker just waits for the thief's completion signal).
		c.waiter = w
		w.state = wsSteal
		w.beginStealRound()
		w.stats.Add(metrics.Sync, e.costs.SyncStolen)
		e.trace(obs.KindBlock, w.id, topo.NoCore, 0, c.spec.Label)
		e.schedule(w, e.now+e.costs.SyncStolen)
	}
}

// completeFrame finishes the top frame and resumes whatever is underneath.
func (w *worker) completeFrame(f *frame) {
	e := w.eng
	f.done = true
	w.popFrameStack()
	e.trace(obs.KindTaskDone, w.id, topo.NoCore, 0, f.spec.Label)

	if f.isRoot {
		e.finishJob(w.job)
		return
	}

	// Wake a remote waiter blocked at this frame's sync, if it is actually
	// sitting idle in its steal loop on exactly this join.
	if f.stolen && f.waiter != nil {
		waiter := f.waiter
		f.waiter = nil
		if waiter.state == wsSteal && !waiter.retired && waiter.top() == f.parent {
			e.schedule(waiter, e.now+1)
		}
	}

	if parent := w.top(); parent != nil {
		switch {
		case f.inlineJoin:
			// Popped at the matching sync: the join completes now.
			parent.popSpawn()
			e.collect(f)
			parent.pc++
			w.state = wsRun
			e.schedule(w, e.now)
		case f.spawnInline, f.calledInline:
			// Inline call: resume the parent past the call/spawn op. A
			// called frame dies here; an inlined spawn is still in
			// parent.spawns and dies at its sync.
			if f.calledInline {
				e.collect(f)
			}
			parent.pc++
			w.state = wsRun
			e.schedule(w, e.now)
		default:
			// f was a stolen task executed while parent is blocked at a
			// sync: return to the blocked parent and re-check its join.
			w.state = wsRun
			e.schedule(w, e.now)
		}
		return
	}
	w.acquireWork()
}

// acquireWork runs with an empty stack: pop the own queue, then steal,
// then — if draining — retire.
func (w *worker) acquireWork() {
	e := w.eng
	if f, ok := w.queue.PopBottom(); ok {
		f.queued = false
		w.backoff = 0
		w.pushFrame(f)
		w.state = wsRun
		w.stats.Add(metrics.TaskInit, e.costs.Pop)
		e.schedule(w, e.now+e.costs.Pop)
		return
	}
	if w.draining {
		w.retire()
		return
	}
	w.state = wsSteal
	w.beginStealRound()
	e.schedule(w, e.now)
}

func (w *worker) retire() {
	w.retired = true
	w.stats.RetiredAt = w.eng.now
	w.eng.trace(obs.KindRetire, w.id, topo.NoCore, 0, "")
	// No event scheduled: the worker exits. A later quantum may revoke the
	// removal and bootstrap it again.
}

// beginStealRound refreshes the victim candidates (random policies shuffle
// per round).
func (w *worker) beginStealRound() {
	w.victims = w.victims[:0]
	if w.job != nil && w.job.victims != nil {
		w.victims = append(w.victims, w.job.victims.Victims(w.id)...)
	}
	w.vIdx = 0
}

// stepSteal performs one probe of the steal loop, or resumes a blocked
// parent whose stolen child completed.
func (w *worker) stepSteal() {
	e := w.eng

	// Resume path: blocked parent whose awaited child finished.
	if p := w.top(); p != nil {
		c := p.youngestSpawn()
		if c == nil || c.done {
			w.state = wsRun
			w.backoff = 0
			e.schedule(w, e.now)
			return
		}
		if w.draining {
			// Removed workers may not steal; wait for the thief's signal.
			return
		}
	} else if w.draining {
		w.retire()
		return
	}

	if len(w.victims) == 0 {
		// No victims (degenerate allotment): idle and retry.
		w.stats.Add(metrics.Idle, e.costs.Backoff)
		w.beginStealRound()
		e.schedule(w, e.now+e.costs.Backoff)
		return
	}

	victim := w.victims[w.vIdx]
	vw := e.workers[victim]
	if vw != nil && vw.queue.StealableLen() > 0 {
		f, ok := vw.queue.StealTop()
		if !ok {
			panic("sim: stealable task vanished in a single-threaded simulator")
		}
		f.queued = false
		f.stolen = true
		vw.stats.StolenFrom++
		vw.chargeTax(e.costs.StealTax)
		cost := e.costs.Steal + e.machine.StealPenalty(w.id, victim)
		mig := e.machine.MigrationPenalty(f.owner, w.id, f.spec.Footprint)
		w.stats.Steals++
		w.stats.Add(metrics.StealSuccess, cost)
		if mig > 0 {
			w.stats.Add(metrics.Migration, mig)
		}
		w.backoff = 0
		e.trace(obs.KindSteal, w.id, victim, 0, f.spec.Label)
		w.pushFrame(f)
		w.state = wsRun
		e.schedule(w, e.now+cost+mig)
		return
	}

	// Failed probe: "trying to steal from victims that have no stealable
	// tasks" — the wasteful operation the evaluation counts. The probe
	// also perturbs a busy victim's cache lines.
	if vw != nil {
		vw.chargeTax(e.costs.ProbeTax)
	}
	cost := e.costs.Probe + e.machine.ProbePenalty(w.id, victim)
	w.stats.FailedProbes++
	w.stats.Add(metrics.ProbeFail, cost)
	e.trace(obs.KindProbeFail, w.id, victim, 0, "")
	w.vIdx++
	if w.vIdx >= len(w.victims) {
		// Round exhausted: back off exponentially, then retry.
		if w.backoff == 0 {
			w.backoff = e.costs.Backoff
		} else if w.backoff < e.costs.BackoffMax {
			w.backoff *= 2
			if w.backoff > e.costs.BackoffMax {
				w.backoff = e.costs.BackoffMax
			}
		}
		w.stats.Add(metrics.Idle, w.backoff)
		w.beginStealRound()
		e.schedule(w, e.now+cost+w.backoff)
		return
	}
	e.schedule(w, e.now+cost)
}
