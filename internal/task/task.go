// Package task models fork/join computations as lazily generated task
// trees that both execution platforms (the discrete-event simulator and the
// real-threads runtime) can run.
//
// A Spec is one task: a straight-line program over four operations that
// mirror WOOL's programming model —
//
//	Compute(w) — perform w cycles of work
//	Spawn(b)   — create the child task b() and place it in the task queue
//	Call(b)    — execute the child task b() inline (WOOL's CALL)
//	Sync()     — join the youngest outstanding spawn (WOOL's SYNC):
//	             pop-and-execute it when it was not stolen, wait for the
//	             thief otherwise
//
// Children are produced by Builder closures so that trees with millions of
// nodes never exist in memory at once. What exists between a task's spawn
// and its join is the platform's frame (the simulator's frame, the runtime's
// Ctx), which holds the execution state — program counter, outstanding
// spawns. A spec only describes the task, so a builder may return a fresh
// spec per instance or one spec shared by every instance of the same node
// (workload's fib does the latter). Builders must be deterministic — the
// simulator's reproducibility depends on it — so any randomness inside
// workload generators derives from fixed seeds.
package task

import "fmt"

// OpKind enumerates the operations of a task program.
type OpKind uint8

const (
	// OpCompute burns Work cycles of useful computation.
	OpCompute OpKind = iota
	// OpSpawn lazily builds a child task and enqueues it for stealing.
	OpSpawn
	// OpCall lazily builds a child task and executes it inline.
	OpCall
	// OpSync joins the youngest outstanding spawn of this task.
	OpSync
)

// String names the op kind for diagnostics.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpSpawn:
		return "spawn"
	case OpCall:
		return "call"
	case OpSync:
		return "sync"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Builder lazily produces a task spec. Builders must be deterministic and
// side-effect free; they may be invoked on any worker, concurrently. A
// builder may return a spec shared with other instances or other trees:
// execution state lives in the platform's frame or Ctx, never in the spec.
type Builder func() *Spec

// Op is one instruction of a task program.
type Op struct {
	Kind OpKind
	Work int64   // OpCompute only: cycles
	Gen  Builder // OpSpawn/OpCall only: the child
}

// Spec is an immutable description of one task.
type Spec struct {
	// Label names the task for traces ("fib(7)"); optional.
	Label string
	// Ops is the task's program, executed in order.
	Ops []Op
	// Footprint is the task's working-set size in abstract bytes. The NUMA
	// machine model charges a migration penalty proportional to it when a
	// stolen task first executes away from where it was spawned.
	Footprint int64
	// MemBound is the fraction of the task's compute cycles that are
	// memory-bandwidth bound, in [0, 1]. The NUMA machine model inflates
	// compute by 1 + MemBound*(workers-1): a fully bandwidth-bound task
	// (Sort's merges) gains nothing from extra workers, which is exactly
	// the no-scaling behaviour the paper's Sort shows on real hardware.
	MemBound float64
}

// Compute returns a compute op of w cycles.
func Compute(w int64) Op { return Op{Kind: OpCompute, Work: w} }

// Spawn returns a spawn op for the child produced by b.
func Spawn(b Builder) Op { return Op{Kind: OpSpawn, Gen: b} }

// Call returns an inline-call op for the child produced by b.
func Call(b Builder) Op { return Op{Kind: OpCall, Gen: b} }

// Sync returns a sync op joining the youngest outstanding spawn.
func Sync() Op { return Op{Kind: OpSync} }

// Leaf returns a task that only computes w cycles.
func Leaf(label string, w int64) *Spec {
	return &Spec{Label: label, Ops: []Op{Compute(w)}}
}

// SpawnJoin builds the most common pattern: optional preamble work, spawn
// every child, optional mid work, sync them all, optional postamble work.
// Zero-valued work amounts emit no compute op.
func SpawnJoin(label string, pre int64, children []Builder, mid int64, post int64) *Spec {
	ops := make([]Op, 0, len(children)*2+3)
	if pre > 0 {
		ops = append(ops, Compute(pre))
	}
	for _, c := range children {
		ops = append(ops, Spawn(c))
	}
	if mid > 0 {
		ops = append(ops, Compute(mid))
	}
	for range children {
		ops = append(ops, Sync())
	}
	if post > 0 {
		ops = append(ops, Compute(post))
	}
	return &Spec{Label: label, Ops: ops}
}

// Validate checks structural invariants of a spec without expanding
// children: every sync must have a matching earlier spawn, compute amounts
// must be non-negative, and spawn/call ops must carry a builder. It returns
// the number of unjoined spawns remaining at the end of the program (the
// platforms join them implicitly at task end, like WOOL's implicit final
// barrier).
func Validate(s *Spec) (unjoined int, err error) {
	if s == nil {
		return 0, fmt.Errorf("task: nil spec")
	}
	outstanding := 0
	for i, op := range s.Ops {
		switch op.Kind {
		case OpCompute:
			if op.Work < 0 {
				return 0, fmt.Errorf("task %q op %d: negative work %d", s.Label, i, op.Work)
			}
		case OpSpawn, OpCall:
			if op.Gen == nil {
				return 0, fmt.Errorf("task %q op %d: %v without builder", s.Label, i, op.Kind)
			}
			if op.Kind == OpSpawn {
				outstanding++
			}
		case OpSync:
			if outstanding == 0 {
				return 0, fmt.Errorf("task %q op %d: sync without outstanding spawn", s.Label, i)
			}
			outstanding--
		default:
			return 0, fmt.Errorf("task %q op %d: unknown kind %d", s.Label, i, op.Kind)
		}
	}
	if s.Footprint < 0 {
		return 0, fmt.Errorf("task %q: negative footprint", s.Label)
	}
	if s.MemBound < 0 || s.MemBound > 1 {
		return 0, fmt.Errorf("task %q: MemBound %v outside [0, 1]", s.Label, s.MemBound)
	}
	return outstanding, nil
}

// Stats summarizes a fully expanded task tree.
type Stats struct {
	// Tasks counts all tasks (root, spawned and called).
	Tasks int64
	// Spawns counts spawn edges only — the tasks that enter task queues.
	Spawns int64
	// Work is T1: the total compute cycles of the whole tree.
	Work int64
	// Span is Tinf: the critical-path length in compute cycles, under the
	// fork/join semantics (spawned children overlap the continuation until
	// their sync; called children serialize).
	Span int64
}

// Parallelism returns T1/Tinf, the average parallelism of the tree.
func (st Stats) Parallelism() float64 {
	if st.Span == 0 {
		return 0
	}
	return float64(st.Work) / float64(st.Span)
}

// Measure expands the whole tree rooted at s and returns its statistics.
// Intended for tests and workload calibration on small inputs: it visits
// every task, so do not call it on production-sized trees.
func Measure(s *Spec) (Stats, error) {
	var st Stats
	span, err := measure(s, &st)
	if err != nil {
		return Stats{}, err
	}
	st.Span = span
	return st, nil
}

func measure(s *Spec, st *Stats) (span int64, err error) {
	if _, err := Validate(s); err != nil {
		return 0, err
	}
	st.Tasks++
	// path is the running prefix length of the continuation; joinStack
	// holds (spawnPoint, childSpan) for outstanding spawns, youngest last.
	var path int64
	type pending struct{ at, span int64 }
	var joins []pending
	for _, op := range s.Ops {
		switch op.Kind {
		case OpCompute:
			st.Work += op.Work
			path += op.Work
		case OpSpawn:
			st.Spawns++
			cs, err := measure(op.Gen(), st)
			if err != nil {
				return 0, err
			}
			joins = append(joins, pending{at: path, span: cs})
		case OpCall:
			cs, err := measure(op.Gen(), st)
			if err != nil {
				return 0, err
			}
			path += cs
		case OpSync:
			j := joins[len(joins)-1]
			joins = joins[:len(joins)-1]
			if end := j.at + j.span; end > path {
				path = end
			}
		}
	}
	// Implicit join of any remaining spawns at task end.
	for i := len(joins) - 1; i >= 0; i-- {
		if end := joins[i].at + joins[i].span; end > path {
			path = end
		}
	}
	return path, nil
}
