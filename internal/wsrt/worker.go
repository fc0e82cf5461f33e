package wsrt

import (
	"runtime"
	"sync/atomic"

	"palirria/internal/deque"
	"palirria/internal/obs"
	"palirria/internal/task"
	"palirria/internal/topo"
)

// worker states.
const (
	stateParked int32 = iota
	stateActive
	stateDraining
	stateStopped
)

// worker is one work-stealing worker thread. Field layout is a deliberate
// padding audit: the owner-only hot section comes first, then a cache
// line of padding before the foreign-written flags (wakers CAS waiting,
// the helper flips state), then another before the owner-written stats,
// and a last one after them — so a waker delivering a token never
// invalidates the line the owner's inner loop is reading, and the owner's
// stat updates never invalidate the flags' line or a neighbour's.
type worker struct {
	id    topo.CoreID
	rt    *Runtime
	deque *deque.ChaseLev[rtTask]
	// shard is the worker's external-injection queue: multi-producer
	// (Submit/SubmitBatch pick a shard per job), drained by the owner
	// first and by sibling thieves in DVS victim order. Sized at least
	// SubmitQueueCap so a push under a successful reservation never
	// fails.
	shard *deque.Shard[rtTask]
	parkC chan struct{}

	// pickup marks persistent-mode workers: when idle with nothing to
	// steal, they pull new job roots from the injection shards (their own
	// first, then siblings'). Written before the worker goroutine starts,
	// read only by it.
	pickup bool

	// hwmSeq is the quantum the hwm mark belongs to (owner-only — see
	// Runtime.qseq for the lazy reset protocol).
	hwmSeq int64
	// depth tracks runTask nesting (owner-only).
	depth int
	// victimBuf is the worker-owned scratch buffer VictimsInto fills, so
	// steal probes do zero heap allocations at steady state (owner-only).
	victimBuf []topo.CoreID
	// ctxFree recycles Ctx frames: runTask and runInline nest strictly,
	// so a LIFO free list bounds allocations by the deepest nesting seen
	// (owner-only).
	ctxFree []*Ctx
	// taskFree recycles spawned task records: Sync puts a record back only
	// once its child is done, and always on its spawner's list, so the list
	// is bounded by this worker's peak number of outstanding spawns
	// (owner-only).
	taskFree []*rtTask
	// excluded accumulates, within the innermost running task's window,
	// time that belongs to someone else: nested runTask spans and search
	// waits, including those inside inline children, which open no window
	// of their own. runTask subtracts it so each nanosecond lands in
	// exactly one of UsefulNS / SearchNS / IdleNS (owner-only).
	excluded int64
	// spins counts consecutive failed sweeps toward the idleSpins budget
	// (owner-only).
	spins int
	// searchT0 is the start of the open search episode (0 = none) and
	// phaseTS the clock reading at the last phase boundary — the two
	// owner-only words behind the phase-boundary accounting that lets
	// back-to-back tasks pay a single clock read each (see runTask).
	searchT0 int64
	phaseTS  int64

	// ring records structured events when tracing is enabled (nil
	// otherwise). Only this worker's goroutine emits into it.
	ring *obs.Ring

	_ [64]byte // foreign-written flags below; owner-only loop state above

	state atomic.Int32
	// waiting is the worker's announced-idle flag: the prepare half of the
	// parking protocol (see idle.go). Set by the worker before it blocks,
	// CAS-consumed by exactly one waker (or the worker itself on wake).
	waiting atomic.Bool
	// hwm is the µ(Q) queue-length high-water mark of the worker's most
	// recent active quantum.
	hwm atomic.Int32
	// busy reports a task currently executing.
	busy atomic.Bool

	_ [64]byte // and the owner-written stats off the flags' line

	stats WorkerReport

	// Workers are allocated back to back, and thieves, wakers and producers
	// read the next worker's leading fields (deque, shard, parkC): keep
	// them off the line this worker's stats updates write.
	_ [64]byte
}

// noteSpawn folds a post-push queue length into the µ(Q) high-water mark,
// resetting it first when this is the worker's first spawn of the current
// estimation quantum (the lazy reset — see Runtime.qseq).
func (w *worker) noteSpawn(n int32) {
	if seq := w.rt.qseq.Load(); seq != w.hwmSeq {
		w.hwmSeq = seq
		w.hwm.Store(n)
		return
	}
	if n > w.hwm.Load() {
		w.hwm.Store(n)
	}
}

// addSearch charges dt nanoseconds of search time, excluding it from any
// enclosing task's useful window.
func (w *worker) addSearch(dt int64) {
	atomic.AddInt64(&w.stats.SearchNS, dt)
	w.excluded += dt
}

// openSearch starts a search episode anchored at the last phase boundary
// — the end of the last task or park — without reading the clock.
// Idempotent while an episode is open; runTask, idleWait, and parkBlocked
// close the episode with the single clock read they were doing anyway.
// Only the worker loop (depth 0) opens episodes; Sync's leapfrog stamps
// its probes explicitly because it runs inside a task window.
func (w *worker) openSearch() {
	if w.searchT0 == 0 {
		if w.phaseTS != 0 {
			w.searchT0 = w.phaseTS
		} else {
			w.searchT0 = nowNS()
		}
	}
}

// closeSearch ends an open search episode at now, charging it to
// SearchNS. No-op when no episode is open.
func (w *worker) closeSearch(now int64) {
	if w.searchT0 != 0 {
		w.addSearch(now - w.searchT0)
		w.searchT0 = 0
	}
}

// addIdle charges dt nanoseconds of parked time (always at depth 0).
func (w *worker) addIdle(dt int64) {
	atomic.AddInt64(&w.stats.IdleNS, dt)
	w.excluded += dt
}

// ctxGet pops a recycled Ctx or allocates the free list's first tenant.
func (w *worker) ctxGet() *Ctx {
	if n := len(w.ctxFree); n > 0 {
		c := w.ctxFree[n-1]
		w.ctxFree = w.ctxFree[:n-1]
		return c
	}
	return &Ctx{w: w}
}

// ctxPut returns a finished frame's Ctx to the free list.
func (w *worker) ctxPut(c *Ctx) {
	c.pending = c.pending[:0]
	w.ctxFree = append(w.ctxFree, c)
}

// taskGet pops a recycled task record, or allocates one, and sets it up
// as a fresh spawn of fn or gen.
func (w *worker) taskGet(fn Func, gen task.Builder) *rtTask {
	n := len(w.taskFree)
	if n == 0 {
		return &rtTask{fn: fn, gen: gen}
	}
	t := w.taskFree[n-1]
	w.taskFree = w.taskFree[:n-1]
	if raceEnabled && !t.done.Load() {
		panic("wsrt: recycling a task record whose child is not done")
	}
	// A plain reset: the done flag read by Sync (or set by the spawner
	// itself) ordered every earlier access before this one.
	*t = rtTask{fn: fn, gen: gen}
	return t
}

// taskPut returns a joined record to the free list. The caller has seen
// the child finish: it ran it itself or observed done, which a thief
// stores only after its last access to the record. The body is dropped,
// so an idle record keeps nothing of its last child reachable.
func (w *worker) taskPut(t *rtTask) {
	t.fn, t.gen = nil, nil
	w.taskFree = append(w.taskFree, t)
}

// emit records one structured event. The disabled path is a nil check.
func (w *worker) emit(k obs.Kind, peer int32, arg int64) {
	if w.ring == nil {
		return
	}
	w.ring.Emit(obs.Event{
		TS: nowNS() - w.rt.startNS, Kind: k,
		Worker: int32(w.id), Peer: peer, Arg: arg,
	})
}

func newWorker(r *Runtime, id topo.CoreID) *worker {
	return &worker{
		id:    id,
		rt:    r,
		deque: deque.MustChaseLev[rtTask](r.cfg.QueueCap),
		shard: deque.MustShard[rtTask](r.cfg.SubmitQueueCap),
		parkC: make(chan struct{}, 1),
	}
}

func (w *worker) unpark() {
	select {
	case w.parkC <- struct{}{}:
	default:
	}
}

func (w *worker) stop() {
	w.state.Store(stateStopped)
	w.rt.clearIdle(w)
	w.unpark()
}

// loop is the worker's main loop.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	if w.rt.cfg.Pin {
		runtime.LockOSThread()
		setAffinity(int(w.id))
		defer runtime.UnlockOSThread()
	}
	for {
		switch w.state.Load() {
		case stateStopped:
			return
		case stateParked:
			// Outside the allotment: block until a grant or stop delivers
			// a token (no timeout — both wake paths store their reason
			// before unparking, so a wake is never missed).
			w.parkBlocked()
			continue
		}
		if w.rt.finished.Load() {
			return
		}
		// Own queue first.
		if t, ok := w.deque.PopBottom(); ok {
			w.runTask(t)
			w.spins = 0
			continue
		}
		if w.state.Load() == stateDraining {
			// Removed and drained: the deque is empty (the owner is the
			// only pusher and its pop just failed, so any last task was
			// taken by a thief who will run it) — park until revoked or
			// stopped. Rebuild the policy so the worker's wake-graph and
			// victim entries are purged now: without it, producers would
			// keep probing the retiree's empty deque and offering it wake
			// tokens until the next unrelated allotment change.
			if w.state.CompareAndSwap(stateDraining, stateParked) {
				w.emit(obs.KindRetire, obs.NoWorker, 0)
				w.rt.rebuildPolicy()
			}
			continue
		}
		// Persistent mode: drain the worker's own injection shard before
		// sweeping victims — it is the work Submit explicitly placed here
		// (the locality the p2c pick aimed for), and the hit path costs
		// one ring pop where a steal sweep walks the whole victim list.
		if w.pickup {
			if t := w.rt.popShard(w); t != nil {
				// More behind it: pass the signal on before running (the
				// same wake chaining the steal path does).
				if w.shard.Len() > 0 {
					w.wakeOneThief()
				}
				w.runTask(t)
				w.spins = 0
				continue
			}
		}
		// Steal. Lookups from here on are search effort: open the episode
		// at the last phase boundary (no clock read — see openSearch).
		w.openSearch()
		if t := w.stealProbe(); t != nil {
			w.runTask(t)
			w.spins = 0
			continue
		}
		// Persistent mode: nothing to run and nothing to steal — take
		// over a submitted job root waiting in a sibling's shard.
		if w.pickup {
			if t := w.takeSibling(); t != nil {
				w.runTask(t)
				w.spins = 0
				continue
			}
		}
		// Bounded spin: a few yielding re-sweeps catch work that is just
		// about to appear, then the worker commits to the parking protocol
		// instead of burning a core on exponential sleep. The yields stay
		// inside the open search episode, so they need no clock reads of
		// their own.
		w.spins++
		if w.spins < idleSpins {
			runtime.Gosched()
			continue
		}
		w.spins = 0
		w.idleWait()
	}
}

// workerByID resolves a core id through the dense index (hot paths only).
// Nil for reserved cores.
func (r *Runtime) workerByID(id topo.CoreID) *worker {
	if int(id) >= len(r.byID) || int(id) < 0 {
		return nil
	}
	return r.byID[id]
}

// stealProbe probes the victim list once, returning the stolen task or
// nil. The probe sequence is allocation-free: the victim list is
// materialized into the worker-owned victimBuf (guarded by
// TestStealProbeZeroAllocs). The caller owns the time accounting — the
// worker loop charges probes to its open search episode, Sync's leapfrog
// stamps them explicitly.
func (w *worker) stealProbe() *rtTask {
	b := w.rt.loadPolicy()
	if b == nil {
		return nil
	}
	w.victimBuf = b.policy.VictimsInto(w.id, w.victimBuf[:0])
	for _, v := range w.victimBuf {
		vw := w.rt.workerByID(v)
		if vw == nil {
			continue
		}
		if t, ok := vw.deque.StealTop(); ok {
			atomic.AddInt64(&w.stats.Steals, 1)
			w.emit(obs.KindSteal, int32(v), 0)
			// Wake chaining: the victim still has work, so pass the signal
			// on to its next idle thief before running the stolen task, and
			// yield once so that thief, queued on this P, starts now. The
			// yield falls inside the search time the caller charges.
			if vw.deque.Len() > 0 && vw.wakeOneThief() {
				runtime.Gosched()
			}
			return t
		}
		atomic.AddInt64(&w.stats.FailedProbes, 1)
		w.emit(obs.KindProbeFail, int32(v), 0)
	}
	return nil
}

// takeSibling pulls the next submitted job root from another worker's
// injection shard: victims in DVS order first (injected work inherits the
// same tidal-flow steal locality as spawned work), then every shard — the
// last resort that rescues jobs stranded in the shard of a worker revoked
// after the producer picked it. A depth check gates each pop, so the idle
// sweep costs two loads per sibling.
func (w *worker) takeSibling() *rtTask {
	r := w.rt
	if b := r.loadPolicy(); b != nil {
		w.victimBuf = b.policy.VictimsInto(w.id, w.victimBuf[:0])
		for _, v := range w.victimBuf {
			vw := r.workerByID(v)
			if vw == nil || vw == w || vw.shard.Len() == 0 {
				continue
			}
			if t := r.popShard(vw); t != nil {
				atomic.AddInt64(&w.stats.ShardSteals, 1)
				if vw.shard.Len() > 0 {
					vw.wakeOneThief()
				}
				return t
			}
		}
	}
	for _, vw := range r.workerList {
		if vw == w || vw.shard.Len() == 0 {
			continue
		}
		if t := r.popShard(vw); t != nil {
			atomic.AddInt64(&w.stats.ShardSteals, 1)
			return t
		}
	}
	return nil
}

// runInline executes an unstolen child on its spawner's stack: one popped
// back at its own parent's Sync, or one Spawn runs at once because the
// deque is full. Unlike runTask it reads no clock, leaves busy alone
// (already true: the parent runs at depth >= 1) and opens no accounting
// window, so the child's time stays in the enclosing runTask's useful
// window — the same total runTask would split into the parent's exclusion
// and the child's self time. Search and leapfrog steals inside the child
// still reach w.excluded and leave that window. Spawned children carry no
// root hook.
func (w *worker) runInline(t *rtTask) {
	if t.onDone != nil {
		panic("wsrt: runInline given a job root")
	}
	ctx := w.ctxGet()
	t.run(ctx)
	ctx.joinAll()
	w.ctxPut(ctx)
	atomic.AddInt64(&w.stats.Tasks, 1)
	w.emit(obs.KindTaskDone, obs.NoWorker, 0)
}

// runTask executes one task to completion (including its implicit joins):
// the entry for roots, stolen tasks, shard pops and tasks stolen while
// leapfrogging — every task that opens its own accounting window. It
// nests (leapfrog steals run inside a task window), so the busy flag
// follows a depth counter (owner-only writes).
func (w *worker) runTask(t *rtTask) {
	w.depth++
	w.busy.Store(true)
	// Phase-boundary timing: when this task follows a search episode, a
	// single clock read both closes the episode and opens the task
	// window; when it directly follows another task (back-to-back pops at
	// depth 0), the previous boundary timestamp is reused and the task
	// pays one clock read in total, at its end. The few nanoseconds of
	// queue bookkeeping between tasks land in UsefulNS — per-task runtime
	// overhead, not search. Nested frames (leapfrog steals) have no
	// boundary to reuse and read the clock.
	var t0 int64
	switch {
	case w.searchT0 != 0:
		t0 = nowNS()
		w.closeSearch(t0)
	case w.depth == 1 && w.phaseTS != 0:
		t0 = w.phaseTS
	default:
		t0 = nowNS()
	}
	// Exclusive accounting: this frame's window starts with a clean
	// exclusion accumulator; nested runTask spans and search waits add to
	// it, and only the remainder is this task's own useful time.
	prevExcl := w.excluded
	w.excluded = 0
	ctx := w.ctxGet()
	t.run(ctx)
	ctx.joinAll()
	w.ctxPut(ctx)
	// Once done is published the spawner may recycle t: read the root
	// hook first and touch t no more.
	onDone := t.onDone
	t.done.Store(true)
	end := nowNS()
	w.phaseTS = end
	elapsed := end - t0
	if self := elapsed - w.excluded; self > 0 {
		atomic.AddInt64(&w.stats.UsefulNS, self)
	}
	atomic.AddInt64(&w.stats.Tasks, 1)
	w.emit(obs.KindTaskDone, obs.NoWorker, 0)
	// The whole window — own time included — is excluded from the
	// enclosing frame, which already counted nothing of it.
	w.excluded = prevExcl + elapsed
	w.depth--
	if w.depth == 0 {
		w.busy.Store(false)
		w.excluded = 0
	}
	if onDone != nil {
		onDone()
	}
}
