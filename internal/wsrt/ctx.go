package wsrt

import (
	"runtime"
	"sync/atomic"
	"time"

	"palirria/internal/obs"
	"palirria/internal/task"
)

// rtTask is one spawned task record: the unit placed in deques and joined
// at syncs. A spawned record comes from its spawner's free list (taskGet)
// and goes back to it at the Sync that joins it (taskPut), once the child
// is known to be done; job roots are allocated fresh and never recycled.
type rtTask struct {
	// fn is the body of a Spawn(Func) child or a root; gen, when set
	// instead, builds a spec child (SpecFunc's spawns), so spawning one
	// needs no closure.
	fn   Func
	gen  task.Builder
	done atomic.Bool
	// onDone, when set, marks a job root: it fires after the task (and all
	// of its joins) completes. The batch Run root uses it to signal
	// completion; persistent-mode submissions use it to notify their
	// waiters. Only roots carry onDone — Spawn never sets it — so it fires
	// only from runTask (or the shutdown flush); runInline refuses a task
	// with one.
	onDone func()
}

// Ctx is the per-task execution context: WOOL's programming interface.
// A Ctx is owned by exactly one worker at a time and must not escape the
// task body or be shared between goroutines.
type Ctx struct {
	w *worker
	// pending holds the outstanding spawns of this task, youngest last.
	pending []*rtTask
}

// Worker returns the executing worker's core id (for diagnostics).
func (c *Ctx) Worker() int { return int(c.w.id) }

// run executes the task's body on ctx.
func (t *rtTask) run(ctx *Ctx) {
	if t.gen != nil {
		runSpec(ctx, t.gen())
		return
	}
	t.fn(ctx)
}

// Spawn places fn in the task queue as a stealable task, continuing the
// current task (work-first). When the queue is full the child executes
// inline immediately (runInline), like WOOL.
func (c *Ctx) Spawn(fn Func) { c.push(c.w.taskGet(fn, nil)) }

// push places a spawned record in the task queue, or runs it at once when
// the queue is full, and appends it to the pending joins.
func (c *Ctx) push(t *rtTask) {
	if c.w.deque.PushBottom(t) {
		n := int32(c.w.deque.Len())
		c.w.noteSpawn(n)
		c.w.emit(obs.KindSpawn, obs.NoWorker, int64(n))
		// The push made work visible; wake one announced idle thief (the
		// no-waiters fast path is a single atomic load — see idle.go).
		c.w.wakeOneThief()
	} else {
		// Still appended below, so that every Sync pairs with exactly one
		// Spawn (WOOL's SYNC joins the youngest spawn, inlined or not);
		// the done flag lets that Sync skip it.
		c.w.runInline(t)
		t.done.Store(true)
	}
	c.pending = append(c.pending, t)
}

// Sync joins the youngest outstanding spawn: if it was not stolen it is
// popped and executed inline (runInline, inside this task's useful
// window); if a thief has it, the worker steals other work while waiting
// (leapfrogging). Once the child is done its record goes back to this
// worker's free list.
func (c *Ctx) Sync() {
	if len(c.pending) == 0 {
		return
	}
	t := c.pending[len(c.pending)-1]
	c.pending = c.pending[:len(c.pending)-1]
	if t.done.Load() {
		c.w.taskPut(t)
		return
	}
	// Conditional pop: only if our child is still the bottom element.
	if c.w.deque.BottomIs(t) {
		if got, ok := c.w.deque.PopBottom(); ok {
			if got == t {
				c.w.runInline(t)
				if raceEnabled {
					// Only for taskGet's tenant check: no thief has t.
					t.done.Store(true)
				}
				c.w.taskPut(t)
				return
			}
			// A thief raced us past t; got is an older task that must go
			// back — impossible under the LIFO invariant, because anything
			// below t was pushed before t and t is the youngest unjoined
			// spawn of the innermost frame.
			panic("wsrt: queue bottom was not the youngest spawn")
		}
	}
	// Stolen: leapfrog until the thief finishes it. Probes are stamped
	// explicitly here (not via the loop's search episodes): this runs
	// inside a task window, and the stamps feed the excluded accumulator
	// so the probe time cannot double-count as the task's useful time.
	spins := 0
	for !t.done.Load() {
		var st *rtTask
		if c.w.state.Load() != stateDraining {
			t0 := nowNS()
			st = c.w.stealProbe()
			c.w.addSearch(nowNS() - t0)
		}
		if st != nil {
			c.w.runTask(st)
			spins = 0
			continue
		}
		spins++
		if spins < 32 {
			runtime.Gosched()
		} else {
			// Asks for 5µs and overshoots: timed inside the paper
			// programs on the bench's 4x2 runtime (2-vCPU host) one sleep
			// takes 15-55µs at p50 (nqueens ~20µs, strassen ~45µs), with
			// a tail reaching 1 ms; alone, in an otherwise idle process,
			// ~12µs at p50 and ~1 ms at p90. It fires at most a few times
			// per forkjoin_batch run, so it is left as is.
			t0 := nowNS()
			time.Sleep(5 * time.Microsecond)
			c.w.addSearch(nowNS() - t0)
		}
	}
	c.w.taskPut(t)
}

// SyncAll joins every outstanding spawn (youngest first).
func (c *Ctx) SyncAll() {
	for len(c.pending) > 0 {
		c.Sync()
	}
}

// joinAll is the implicit barrier at task end.
func (c *Ctx) joinAll() { c.SyncAll() }

// computeUnit is the calibrated spin kernel: a xorshift step that the
// compiler cannot elide, approximating one abstract "cycle" of the task
// model. Exported knobs are unnecessary — workload shapes, not absolute
// times, are what the estimators observe.
var computeSink uint64

// Compute burns approximately `cycles` units of CPU work. It is the
// real-runtime realization of task.OpCompute.
func (c *Ctx) Compute(cycles int64) {
	x := uint64(cycles) | 1
	for i := int64(0); i < cycles; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	atomic.AddUint64(&computeSink, x&1)
}

// SpecFunc adapts a lazily generated task tree (the shared workload
// representation) to the real runtime: Compute spins, Spawn/Call/Sync map
// directly onto the Ctx operations. A spawned child's builder runs where
// the child runs — on the thief that steals it, or on the spawner when it
// pops the child back at its sync — never on the spawner before the push;
// task.Builder allows any worker to invoke it. The spawned record carries
// the builder itself, so a spec spawn allocates nothing.
func SpecFunc(s *task.Spec) Func {
	return func(c *Ctx) { runSpec(c, s) }
}

// runSpec executes one spec's program on c.
func runSpec(c *Ctx, s *task.Spec) {
	for _, op := range s.Ops {
		switch op.Kind {
		case task.OpCompute:
			c.Compute(op.Work)
		case task.OpSpawn:
			c.push(c.w.taskGet(nil, op.Gen))
		case task.OpCall:
			// A call gets its own frame scope: its spawns join inside
			// it, never leaking into the parent's pending list.
			sub := c.w.ctxGet()
			runSpec(sub, op.Gen())
			sub.joinAll()
			c.w.ctxPut(sub)
		case task.OpSync:
			c.Sync()
		}
	}
}
