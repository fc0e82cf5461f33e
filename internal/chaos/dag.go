package chaos

import (
	"context"
	"errors"
	"sync"
	"time"

	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/topo"
)

// DAGNodeSpec is one planned node of a structured job: a binary fan of
// Leaves leaves, its dependency list (indices into the graph, always
// forward), and its priority class.
type DAGNodeSpec struct {
	Leaves    int   `json:"leaves"`
	ComputeNS int64 `json:"compute_ns"`
	Deps      []int `json:"deps,omitempty"`
	Class     int   `json:"class,omitempty"`
}

// DAGSpec is one planned structured job: submitted after DelayUS, and —
// when CancelAtUS > 0 — its submission context is cancelled that many
// microseconds after the submit starts, racing the cancellation against
// whatever the graph has released so far.
type DAGSpec struct {
	Nodes      []DAGNodeSpec `json:"nodes"`
	DelayUS    int64         `json:"delay_us,omitempty"`
	CancelAtUS int64         `json:"cancel_at_us,omitempty"`
}

// classAudit replays a pool's admission log in hub order against the
// ladder-stamping invariant: every class-shed event must carry a ladder
// level strictly above its class, every admitted event a level at or
// below it. Because the hub totally orders events, this is the exact form
// of "no high-class job was shed in a window where a lower class was
// still being admitted". When no events were dropped, the per-class
// tallies also cross-check the pool's ByClass ledger.
type classAudit struct {
	res      *Result
	sub      *stream.Sub
	done     chan struct{}
	admitted [serve.NumClasses]int64
	shed     [serve.NumClasses]int64
}

func newClassAudit(hub *stream.Hub, res *Result) *classAudit {
	a := &classAudit{res: res, done: make(chan struct{})}
	a.sub = hub.Subscribe(stream.SubOptions{
		Buf:   16384,
		Kinds: []stream.Kind{stream.KindAdmitted, stream.KindShed, stream.KindDeadlineShed},
	})
	go func() {
		defer close(a.done)
		for ev := range a.sub.Events() {
			a.observe(ev)
		}
	}()
	return a
}

func (a *classAudit) observe(ev stream.Event) {
	class, ok := serve.ParseClass(ev.Detail)
	if !ok {
		a.res.fail("class audit: %v event carries unknown class %q", ev.Kind, ev.Detail)
		return
	}
	switch ev.Kind {
	case stream.KindAdmitted:
		a.admitted[class]++
		if ev.Arg > int64(class) {
			a.res.fail("class audit: %v job admitted while the ladder read level %d", class, ev.Arg)
		}
	case stream.KindShed:
		switch ev.Reason {
		case "shed":
			a.shed[class]++
			if ev.Arg <= int64(class) {
				a.res.fail("class audit: %v job class-shed at ladder level %d (must be > class)", class, ev.Arg)
			}
		case "full":
			// Cleared the ladder, bounced off a saturated queue: no
			// ordering claim between the stamped level and the class.
		default:
			a.res.fail("class audit: shed event with unknown reason %q", ev.Reason)
		}
	case stream.KindDeadlineShed:
		a.shed[class]++
		if ev.Reason != "deadline" {
			a.res.fail("class audit: deadline-shed event with reason %q", ev.Reason)
		}
		if ev.Arg < 0 {
			a.res.fail("class audit: deadline-shed predicted wait %dns < 0", ev.Arg)
		}
	}
}

// finish detaches the auditor and, if the subscriber kept up, checks the
// replayed tallies against the pool's per-class ledger.
func (a *classAudit) finish(p *serve.Pool) {
	a.sub.Close()
	<-a.done
	if a.sub.Dropped() > 0 {
		// Every delivered event was still audited; the tallies are just
		// incomplete, so the ledger cross-check is skipped.
		return
	}
	st := p.Stats()
	for c := serve.ClassLow; c < serve.NumClasses; c++ {
		if a.admitted[c] != st.ByClass[c].Admitted {
			a.res.fail("class audit: %v stream shows %d admissions, pool ledger %d",
				c, a.admitted[c], st.ByClass[c].Admitted)
		}
		if a.shed[c] != st.ByClass[c].Shed {
			a.res.fail("class audit: %v stream shows %d sheds, pool ledger %d",
				c, a.shed[c], st.ByClass[c].Shed)
		}
	}
}

// runDAG drives a serve.Pool through SubmitDAG: planned graph storms with
// per-graph cancellations racing the release cascade, then a full drain.
// Conservation must survive the cancellation storm — every admitted node
// resolves exactly once as completed or cancelled, no body runs twice, no
// leaf is lost, and the pool's counters match the ledger.
func runDAG(sc *Script, res *Result) {
	p, err := newPool(sc, "chaos-dag", topo.CoreID(sc.Source), nil)
	if err != nil {
		res.fail("build pool: %v", err)
		return
	}
	recs := make([][]*jobRec, len(sc.DAGs))
	for i, d := range sc.DAGs {
		recs[i] = make([]*jobRec, len(d.Nodes))
		for k, ns := range d.Nodes {
			recs[i][k] = &jobRec{leaves: ns.Leaves}
		}
	}
	start := time.Now()

	oscDone := make(chan struct{})
	go func() {
		defer close(oscDone)
		oscillate(sc.CapEvents, start, p.SetMaxWorkers)
	}()

	var wg sync.WaitGroup
	for g := 0; g < sc.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for di := g; di < len(sc.DAGs); di += sc.Submitters {
				submitOneDAG(context.Background(), p, sc.DAGs[di], recs[di], di, res)
			}
		}(g)
	}
	wg.Wait()

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := p.Drain(drainCtx); err != nil {
		res.fail("drain: %v", err)
	}
	<-oscDone

	var flat []*jobRec
	for _, rs := range recs {
		flat = append(flat, rs...)
	}
	checkLedger(flat, res)
	completed, discarded := ledgerSplit(flat, func(int) bool { return true })
	checkPoolStats(p, res, completed, discarded)
}

// submitOneDAG submits one planned graph under a context derived from
// parent and records each node's fate. A whole-graph admission rejection
// fills every error slot with the same refusal sentinel — ErrExpired for
// a context already done when the graph reached the pool; anything else
// means the graph was admitted and each node's error reports its own
// resolution.
func submitOneDAG(parent context.Context, p *serve.Pool, d DAGSpec, recs []*jobRec, di int, res *Result) {
	sleepUS(d.DelayUS)
	ctx := parent
	if d.CancelAtUS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(d.CancelAtUS)*time.Microsecond)
		defer cancel()
	}
	nodes := make([]serve.DAGNode, len(d.Nodes))
	for k, ns := range d.Nodes {
		nodes[k] = serve.DAGNode{
			Fn:    jobBody(recs[k], JobSpec{Leaves: ns.Leaves, ComputeNS: ns.ComputeNS}),
			Deps:  ns.Deps,
			Class: serve.Class(ns.Class),
		}
	}
	errs, err := p.SubmitDAG(ctx, nodes)
	if err != nil {
		res.fail("dag %d: %v", di, err)
		for _, rec := range recs {
			rec.outcome.Store(outcomeRejected)
		}
		return
	}
	if len(errs) != len(recs) {
		res.fail("dag %d: %d errors for %d nodes", di, len(errs), len(recs))
		return
	}
	rejected := true
	for _, e := range errs {
		if !(errors.Is(e, serve.ErrQueueFull) || errors.Is(e, serve.ErrOverloaded) ||
			errors.Is(e, serve.ErrDeadline) || errors.Is(e, serve.ErrDraining) ||
			errors.Is(e, serve.ErrExpired)) {
			rejected = false
			break
		}
	}
	for k, rec := range recs {
		if rejected {
			rec.outcome.Store(outcomeRejected)
			continue
		}
		rec.outcome.Store(outcomeAccepted)
		rec.done.Add(1) // the resolved await is the ack; bodies audit at drain
		e := errs[k]
		if e == nil || errors.Is(e, serve.ErrCancelled) || errors.Is(e, serve.ErrDiscarded) ||
			errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			continue
		}
		res.fail("dag %d node %d: unexpected error %v", di, k, e)
	}
}
