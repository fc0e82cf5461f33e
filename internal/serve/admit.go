package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"palirria/internal/obs/stream"
	"palirria/internal/wsrt"
)

// Admission has two shapes sharing the helpers below, each the only place
// its decision is made. Independent entries (Submit, SubmitJob,
// SubmitBatch) are judged one by one and count as admitted only once the
// runtime holds them: a tail the runtime refuses is unwound uncounted. A
// graph (SubmitDAG) is judged as a unit on its highest class, takes its
// slots all-or-nothing and goes on the books whole before any node is
// launched; a root the runtime then refuses is a cancellation.

// open is the lifecycle and context gate every submission passes first. A
// context already done is refused as ErrExpired wrapping ctx.Err(), so a
// caller can tell a refusal from an admitted job its context cancelled.
func (p *Pool) open(ctx context.Context) error {
	if p.state.Load() != poolAccepting {
		return ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrExpired, err)
	}
	return nil
}

// judge is the policy verdict for one class and start deadline at ladder
// level lvl: ErrOverloaded when the ladder has reached the class,
// ErrDeadline when the predicted wait misses the deadline, else nil. arg is
// what the decision's stream event carries: the level, or the predicted
// wait for a deadline refusal. Callers sample the level once per
// submission, so an event log ordered by hub sequence can audit class
// ordering exactly: a "shed" refusal always carries Arg > class, an
// admission Arg <= class.
func (p *Pool) judge(class Class, deadline time.Time, lvl int32) (arg int64, err error) {
	if lvl > int32(class) {
		return int64(lvl), ErrOverloaded
	}
	if wait, late := p.missesDeadline(deadline); late {
		return wait, ErrDeadline
	}
	return int64(lvl), nil
}

// takeSlots acquires n queue slots or none (ErrQueueFull) in one CAS on
// inflight against QueueCap: a partially admitted graph would deadlock
// against itself when the missing nodes are predecessors, and two graphs
// racing for the last slots cannot both be refused when one alone fits.
// Each slot is one inflight count until release returns it.
func (p *Pool) takeSlots(n int) error {
	for {
		cur := p.inflight.Load()
		if cur+int64(n) > int64(p.cfg.QueueCap) {
			return ErrQueueFull
		}
		if p.inflight.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// refuse books one refused job or node under its cause — the cause counter,
// the class ledger (ladder and deadline refusals only) and exactly one
// stream event — and returns the cause for the submitter.
func (p *Pool) refuse(cause error, class Class, arg int64) error {
	ev := stream.Event{Kind: stream.KindShed, Reason: "full", Detail: class.String(), Arg: arg}
	switch cause {
	case ErrOverloaded:
		p.rejectedShed.Add(1)
		p.classShed[class].Add(1)
		ev.Reason = "shed"
	case ErrDeadline:
		p.rejectedDeadline.Add(1)
		p.classShed[class].Add(1)
		ev.Kind, ev.Reason = stream.KindDeadlineShed, "deadline"
	default:
		p.rejectedFull.Add(1)
	}
	p.publishEv(ev)
	return cause
}

// release returns one resident job's slot and signals Drain when it was
// the last.
func (p *Pool) release() {
	if p.inflight.Add(-1) == 0 {
		p.noteIdle()
	}
}

// book counts j admitted and publishes its admitted event. Under either
// booking rule j's onDone is certain to fire from here on, so a Stats
// scrape never sees more admissions than completions + cancellations +
// flight. A fast job's started event may precede its admitted event.
func (p *Pool) book(j *job, lvl int32) {
	p.admitted.Add(1)
	p.classAdmitted[j.class].Add(1)
	p.publishEv(stream.Event{Kind: stream.KindAdmitted, Job: j.id,
		Detail: j.class.String(), Arg: int64(lvl)})
}

// Submit admits fn as one job and waits for it. It returns nil once the
// job (and every task it spawned) completed, or:
//
//   - ErrDraining when the pool no longer admits work;
//   - ErrOverloaded while the estimator-driven shed latch is armed;
//   - ErrQueueFull when the bounded admission queue is at capacity;
//   - ErrExpired, wrapped together with ctx.Err(), when the context was
//     already done at admission — nothing was admitted;
//   - ctx.Err() when the context expires — a job that has not started is
//     skipped entirely; a job already running completes in the background
//     (cooperative model: a fork/join body cannot be preempted) and is
//     still counted and drained;
//   - ErrDiscarded when the pool shut down before the job ran.
//
// Submit is SubmitJob with the zero Job: low priority, no deadline.
func (p *Pool) Submit(ctx context.Context, fn wsrt.Func) error {
	return p.SubmitJob(ctx, Job{Fn: fn})
}

// SubmitJob admits one classed, optionally deadlined job and waits for
// it. Beyond Submit's contract it can also return:
//
//   - ErrOverloaded when the shed ladder has reached the job's class
//     (low-class work is shed first, high-class last);
//   - ErrDeadline when the predicted submit-to-start wait (observed p99
//     scaled by the estimator's overload ratio) would miss Job.Deadline.
func (p *Pool) SubmitJob(ctx context.Context, jb Job) error {
	var errs [1]error
	p.admit(ctx, []Job{jb}, errs[:])
	return errs[0]
}

// SubmitBatch admits fns as low-class, deadline-free jobs handed to the
// runtime in a single wsrt.SubmitBatch call, so a wave of arrivals costs
// one reservation per chunk of eight and at most one wakeup per injection
// shard.
// The returned slice is aligned with fns: entry i is nil when job i
// completed, or the error Submit would have returned for it — a full
// queue rejects the overflow entries and admits the rest.
func (p *Pool) SubmitBatch(ctx context.Context, fns []wsrt.Func) []error {
	jobs := make([]Job, len(fns))
	for i, fn := range fns {
		jobs[i].Fn = fn
	}
	errs := make([]error, len(fns))
	p.admit(ctx, jobs, errs)
	return errs
}

// admit is the admission routine for independent entries: every job is
// judged on its own class and deadline, the admitted ones reach the
// runtime in one hand-off, and errs[i] is SubmitJob's answer for jobs[i].
func (p *Pool) admit(ctx context.Context, jobs []Job, errs []error) {
	if err := p.open(ctx); err != nil {
		fillErrs(errs, err)
		return
	}
	lvl := p.shedLevel.Load()
	held := make([]*job, 0, len(jobs))
	batch := make([]wsrt.Job, 0, len(jobs))
	for i, jb := range jobs {
		class := jb.Class.clamp()
		arg, err := p.judge(class, jb.Deadline, lvl)
		if err == nil {
			err = p.takeSlots(1)
		}
		if err != nil {
			errs[i] = p.refuse(err, class, arg)
			continue
		}
		j, wrapped, onDone := p.prepare(jb.Fn, class)
		j.idx = i
		held = append(held, j)
		batch = append(batch, wsrt.Job{Fn: wrapped, OnDone: onDone})
	}
	// Booked strictly for the runtime-accepted prefix: a partial
	// acceptance — (n, ErrSubmitQueueFull) or a mid-batch close's (n>0,
	// ErrClosed) — must not inflate admitted past what the runtime holds
	// (TestPoolBatchAdmittedMatchesRuntimePrefix pins both shapes).
	n, err := p.submitBatch(batch)
	for _, j := range held[:n] {
		p.book(j, lvl)
	}
	// The tail never reached the runtime: unwind it and report the cause.
	tail := err
	switch {
	case errors.Is(err, wsrt.ErrClosed):
		tail = ErrDraining // lost the race against a concurrent Drain
	case errors.Is(err, wsrt.ErrSubmitQueueFull):
		// Unreachable when the pool owns its runtime (New forces
		// SubmitQueueCap >= QueueCap), but keep the mapping total.
		tail = ErrQueueFull
	}
	for _, j := range held[n:] {
		p.release()
		errs[j.idx] = tail
	}
	for _, j := range held[:n] {
		errs[j.idx] = p.await(ctx, j)
	}
}

func fillErrs(errs []error, err error) []error {
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// missesDeadline predicts the submit-to-start wait for a job admitted now
// and reports whether it would start after deadline (zero deadlines never
// miss). The prediction is the observed p99 queue wait scaled by the
// estimator's overload ratio desire/capacity when desire exceeds capacity
// — the histogram lags a growing backlog, and the ratio is exactly the
// signal by which the estimator says the backlog is outgrowing the
// machine.
func (p *Pool) missesDeadline(deadline time.Time) (waitNS int64, late bool) {
	if deadline.IsZero() {
		return 0, false
	}
	est := p.latHist.Quantile(0.99) * 1e9
	if d, c := p.lastDesire.Load(), p.rt.Capacity(); c > 0 && d > int64(c) {
		est *= float64(d) / float64(c)
	}
	waitNS = int64(est)
	return waitNS, nowNS()+waitNS > deadline.UnixNano()
}

// prepare builds one job record with its wrapped body and completion
// callback — the per-job half of admission, shared by both shapes. The
// caller owns the job's slot up to the hand-off; onDone returns it.
func (p *Pool) prepare(fn wsrt.Func, class Class) (*job, wsrt.Func, func()) {
	j := &job{id: p.jobSeq.Add(1), class: class, done: make(chan struct{})}
	submitNS := nowNS()
	wrapped := func(c *wsrt.Ctx) {
		if !j.state.CompareAndSwap(jobPending, jobRunning) {
			return // cancelled while queued
		}
		p.running.Add(1)
		p.latHist.Observe(float64(nowNS()-submitNS) / 1e9)
		p.publishEv(stream.Event{Kind: stream.KindStarted, Job: j.id})
		fn(c)
	}
	onDone := func() {
		// Fires after the job's task tree fully completed — or, for
		// skipped/discarded jobs, as soon as the runtime flushes them.
		// The terminal event publishes before the inflight decrement so
		// that every admitted job's terminal event is on the hub by the
		// time Drain observes the pool empty.
		if j.state.CompareAndSwap(jobRunning, jobDone) {
			p.running.Add(-1)
			p.completed.Add(1)
			p.classCompleted[j.class].Add(1)
			p.publishEv(stream.Event{Kind: stream.KindCompleted, Job: j.id})
		} else {
			p.cancelled.Add(1)
			p.publishEv(stream.Event{Kind: stream.KindCancelled, Job: j.id})
		}
		p.release()
		close(j.done)
	}
	return j, wrapped, onDone
}

// await blocks until j resolves or ctx expires, translating the job state
// into Submit's error contract.
func (p *Pool) await(ctx context.Context, j *job) error {
	select {
	case <-j.done:
		if j.state.Load() == jobDone {
			return nil
		}
		return ErrDiscarded
	case <-ctx.Done():
		// A job that never started is marked so the worker that dequeues it
		// skips it; one already running detaches — it still completes and
		// Drain still waits for it.
		j.state.CompareAndSwap(jobPending, jobCancelled)
		return ctx.Err()
	}
}
