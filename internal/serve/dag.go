package serve

import (
	"context"
	"sync/atomic"

	"palirria/internal/wsrt"
)

// dagNode is the dependency ledger's record for one submitted node: the
// pool job plus the graph bookkeeping that releases or cancels it.
type dagNode struct {
	j       *job
	wrapped wsrt.Func
	onDone  func()
	// indeg counts unfinished predecessors; the last terminal predecessor
	// decrements it to zero and launches the node.
	indeg atomic.Int32
	succs []int
	// released flips exactly once: either the node was handed to the
	// runtime (launch) or it was finalized as cancelled (cancel). The CAS
	// is what makes the terminal accounting exactly-once even when
	// several failing predecessors race to cancel the same descendant.
	released atomic.Bool
	// cause, when set before the node resolves, refines await's
	// ErrDiscarded into the DAG-specific cause (ErrCancelled). Written
	// before onDone closes j.done, read only after it.
	cause error
}

// dag is one submitted job graph's ledger.
type dag struct {
	p     *Pool
	nodes []*dagNode
}

// validateDAG checks dependency indices and acyclicity (Kahn), returning
// each node's initial indegree and successor list.
func validateDAG(nodes []DAGNode) (indeg []int32, succs [][]int, err error) {
	indeg = make([]int32, len(nodes))
	succs = make([][]int, len(nodes))
	for i, n := range nodes {
		for _, d := range n.Deps {
			if d < 0 || d >= len(nodes) {
				return nil, nil, ErrBadDAG
			}
			indeg[i]++
			succs[d] = append(succs[d], i)
		}
	}
	// Kahn: repeatedly release zero-indegree nodes; leftovers are a cycle.
	work := append([]int32(nil), indeg...)
	queue := make([]int, 0, len(nodes))
	for i := range nodes {
		if work[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range succs[i] {
			if work[s]--; work[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != len(nodes) {
		return nil, nil, ErrBadDAG
	}
	return indeg, succs, nil
}

// SubmitDAG admits a job graph as one unit and waits for every node. The
// runtime releases a node the moment its last predecessor completes —
// pipelines and map/reduce shapes flow through the resident allotment
// without any caller-side sequencing — and a predecessor that does not
// complete (cancelled, discarded at shutdown) cancels every
// not-yet-released descendant with exactly-once terminal accounting.
//
// The returned slice is aligned with nodes: entry i is nil when node i
// completed, ErrCancelled when a failed predecessor cancelled it, or the
// per-job error Submit would have returned. A graph refused as a unit —
// ErrQueueFull, ErrOverloaded, ErrDeadline, ErrDraining, or ErrExpired
// for a context already done — carries the same refusal in every entry
// and admitted nothing. The second return is non-nil
// only for a structurally invalid graph (ErrBadDAG: out-of-range
// dependency or cycle), in which case nothing was admitted.
//
// Admission is all-or-nothing: the whole graph needs queue slots for all
// of its nodes (ErrQueueFull otherwise), is shed as a unit on its highest
// class, and a node deadline that is already unmeetable rejects the graph
// with ErrDeadline before anything runs.
func (p *Pool) SubmitDAG(ctx context.Context, nodes []DAGNode) ([]error, error) {
	if len(nodes) == 0 {
		return nil, nil
	}
	indeg, succs, err := validateDAG(nodes)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(nodes))
	if err := p.open(ctx); err != nil {
		return fillErrs(errs, err), nil
	}
	maxClass := ClassLow
	for _, n := range nodes {
		maxClass = max(maxClass, n.Class.clamp())
	}
	// The unit verdict. A refused graph is refused node by node: each one
	// is a refused job on the counters, the class ledger and the stream.
	lvl := p.shedLevel.Load()
	var verdict error
	arg := int64(lvl)
	for i := 0; i < len(nodes) && verdict == nil; i++ {
		arg, verdict = p.judge(maxClass, nodes[i].Deadline, lvl)
	}
	if verdict == nil {
		verdict = p.takeSlots(len(nodes))
	}
	if verdict != nil {
		for i, n := range nodes {
			errs[i] = p.refuse(verdict, n.Class.clamp(), arg)
		}
		return errs, nil
	}

	d := &dag{p: p, nodes: make([]*dagNode, len(nodes))}
	for i, n := range nodes {
		j, wrapped, onDone := p.prepare(n.Fn, n.Class.clamp())
		dn := &dagNode{j: j, wrapped: wrapped, onDone: onDone, succs: succs[i]}
		dn.indeg.Store(indeg[i])
		d.nodes[i] = dn
	}
	// Every node is on the books from here: each one's terminal
	// accounting (onDone) fires exactly once — by a worker, by the
	// shutdown flush, or by the ledger's cancel path — so counting the
	// whole graph admitted now preserves the conservation identity
	// Admitted == Completed + Cancelled at drain.
	for _, dn := range d.nodes {
		p.book(dn.j, lvl)
	}
	for i, dn := range d.nodes {
		if dn.indeg.Load() == 0 {
			d.launch(i)
		}
	}
	for i, dn := range d.nodes {
		errs[i] = p.await(ctx, dn.j)
		if errs[i] == ErrDiscarded && dn.cause != nil {
			errs[i] = dn.cause
		}
	}
	return errs, nil
}

// launch hands node i to the runtime. The released CAS makes it a no-op
// when a cancel already finalized the node; the completion callback runs
// the node's own onDone and then routes its fate back into the ledger,
// exactly once, whether the node ran or the shutdown flush discarded it.
func (d *dag) launch(i int) {
	dn := d.nodes[i]
	if !dn.released.CompareAndSwap(false, true) {
		return
	}
	err := d.p.rt.Submit(dn.wrapped, func() { dn.onDone(); d.terminal(i) })
	if err != nil {
		// The runtime refused the node (a drain's shutdown won the race,
		// or the backlog bound broke). Finalize it here — the runtime
		// never saw it, so nobody else will — and fail its descendants.
		dn.cause = ErrDraining
		dn.j.state.CompareAndSwap(jobPending, jobCancelled)
		dn.onDone()
		d.cancelSuccs(i)
	}
}

// terminal is node i's release-on-terminal step, run exactly once after
// the node's own onDone. A node that ran to completion (its job state is
// jobDone) releases its successors (atomic indegree decrement; the
// decrement that reaches zero launches); any other fate — skipped because
// its context cancelled it while queued, or discarded unrun by the
// shutdown flush — cancels all not-yet-released descendants.
func (d *dag) terminal(i int) {
	dn := d.nodes[i]
	if dn.j.state.Load() == jobDone {
		for _, s := range dn.succs {
			if d.nodes[s].indeg.Add(-1) == 0 {
				d.launch(s)
			}
		}
		return
	}
	d.cancelSuccs(i)
}

func (d *dag) cancelSuccs(i int) {
	for _, s := range d.nodes[i].succs {
		d.cancel(s)
	}
}

// cancel finalizes a never-launched node as cancelled and recurses into
// its descendants. The released CAS dedups racing cancels (a node with
// two failed predecessors) and racing launches (a sibling completing
// concurrently); whichever path wins, the node's onDone — and with it the
// cancelled counter, the terminal stream event, the queue slot and the
// inflight decrement — fires exactly once.
func (d *dag) cancel(i int) {
	dn := d.nodes[i]
	if !dn.released.CompareAndSwap(false, true) {
		return
	}
	dn.cause = ErrCancelled
	dn.j.state.CompareAndSwap(jobPending, jobCancelled)
	dn.onDone()
	d.cancelSuccs(i)
}
