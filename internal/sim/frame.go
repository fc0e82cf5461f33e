package sim

import (
	"palirria/internal/task"
	"palirria/internal/topo"
)

// frame is one task instance in flight: a task.Spec plus its execution
// state. Frames live either in a worker's queue (spawned, waiting to be
// popped or stolen), on a worker's frame stack (executing, possibly
// suspended under deeper frames), or nowhere (joined and collected).
//
// Frames are recycled through the engine's free list, each at the one
// point where its last reference dies: a spawned child where its parent
// pops it from spawns (handleSync's done arm; completeFrame's inlineJoin
// arm), an OpCall child when it completes. A job's root is never collected.
type frame struct {
	spec *task.Spec
	// pc indexes the next op in spec.Ops. Values past len(Ops) drive the
	// implicit joins of unjoined spawns at task end.
	pc int
	// spawns holds the outstanding (not yet joined) spawned children,
	// youngest last — WOOL joins LIFO.
	spawns []*frame

	// owner is the worker that created the frame; origin for the NUMA
	// migration penalty.
	owner topo.CoreID
	// queued is true while the frame sits in its owner's task queue.
	queued bool
	// stolen is true once a thief took the frame.
	stolen bool
	// done is set when the frame's program and joins completed.
	done bool
	// inlineJoin marks a frame being executed inline by its owner at the
	// matching sync: completion both advances the parent's pc and pops the
	// parent's youngest spawn record.
	inlineJoin bool
	// spawnInline marks a frame executed inline at spawn time because the
	// queue was full: completion advances the parent's pc past the spawn
	// op; the frame stays in parent.spawns, already done, until the matching
	// sync joins it.
	spawnInline bool
	// calledInline marks a frame created by OpCall: completion advances
	// the parent's pc past the call op.
	calledInline bool
	// parent is the frame whose spawn/call created this one.
	parent *frame
	// waiter is the worker blocked at this frame's sync, to be woken when
	// the frame completes. Only stolen frames acquire waiters.
	waiter *worker
	// isRoot marks a job's root frame: completion finishes the job.
	isRoot bool
}

// newFrame materializes a child spec, reusing a collected frame if one is
// free.
func (e *engine) newFrame(spec *task.Spec, owner topo.CoreID, parent *frame) *frame {
	n := len(e.freeFrames)
	if n == 0 {
		e.framesMade++
		return &frame{spec: spec, owner: owner, parent: parent}
	}
	f := e.freeFrames[n-1]
	e.freeFrames[n-1] = nil
	e.freeFrames = e.freeFrames[:n-1]
	f.spec, f.owner, f.parent = spec, owner, parent
	return f
}

// collect returns a joined frame to the free list. Everything is zeroed
// except spawns' capacity, so touching a collected frame dereferences a nil
// spec in every run, not only under a debug mode.
func (e *engine) collect(f *frame) {
	*f = frame{spawns: f.spawns[:0]}
	e.freeFrames = append(e.freeFrames, f)
}

// youngestSpawn returns the youngest outstanding spawn, or nil.
func (f *frame) youngestSpawn() *frame {
	if len(f.spawns) == 0 {
		return nil
	}
	return f.spawns[len(f.spawns)-1]
}

// popSpawn removes the youngest outstanding spawn record.
func (f *frame) popSpawn() {
	f.spawns[len(f.spawns)-1] = nil
	f.spawns = f.spawns[:len(f.spawns)-1]
}

// programDone reports whether the explicit op list is exhausted.
func (f *frame) programDone() bool { return f.pc >= len(f.spec.Ops) }
