package wsrt

import (
	"palirria/internal/obs"
)

// Idle path: event-driven worker parking.
//
// The paper's core claim is that Palirria keeps wasted cycles low by
// shrinking the allotment instead of letting idle workers burn time
// searching. The runtime therefore must not busy-wait: a worker that
// exhausts its victim list parks and is woken precisely by the events
// that can give it work —
//
//   - a victim pushing a task (Ctx.Spawn wakes one idle thief of the
//     pushing worker, taken from the reverse of the victim graph);
//   - a successful steal that leaves more work behind (wake chaining:
//     the thief wakes the victim's next idle thief before running);
//   - a persistent-mode Submit (the producer pushes into one worker's
//     injection shard and wakes that shard's owner — or, when the owner
//     is busy, one of the owner's idle thieves, who will find the job
//     through the same victim order it steals spawned work by);
//   - an allotment change (the helper unparks entering workers, nudges
//     leaving ones, and wakes every announced waiter after a policy
//     rebuild so they re-evaluate against the new victim lists);
//   - shutdown (stop stores the state, then unparks).
//
// Lost wakeups are excluded by a prepare/commit protocol. A worker
// announces itself (waiting.Store(true)), then re-checks every wake
// source, and only then blocks. A producer makes its work visible
// first, then loads the waiting flags. Both sides use sequentially
// consistent atomics, so for every (producer, eligible thief) pair at
// least one of the two observes the other: either the re-check sees the
// work, or the producer sees the announced waiter and delivers a token.
// Tokens travel through each worker's buffered parkC, so a token sent
// to a worker that has not blocked yet is consumed by its next park
// immediately — a wake can be early, never lost.
//
// A waker that delivers a token for deque work (a spawn's push, or wake
// chaining after a steal) yields once: Go queues the readied thief in the
// waker's own P (runnext), where it would wait until the waker blocks.
// Submit's wakes and the shard-pickup chaining do not yield.
//
// Spurious wakeups are benign by construction: every wake path returns
// to the top of the worker loop, which re-examines state, own queue,
// victims, and the injection shards before parking again.

// idleSpins is the bounded spin budget: failed full victim sweeps a
// worker performs (yielding between them) before it announces itself
// and parks. It replaces the seed's exponential time.Sleep backoff,
// which capped at 256µs and both inflated SearchNS and delayed pickup
// of newly submitted work by up to a full backoff period.
const idleSpins = 4

// announceIdle publishes w as a parked-or-parking thief. Idempotent;
// paired with clearIdle, which is called by whoever consumes the
// announcement (a waker or the worker itself on wake), keeping the
// idleWaiters gauge exact.
func (r *Runtime) announceIdle(w *worker) {
	if w.waiting.CompareAndSwap(false, true) {
		r.idleWaiters.Add(1)
	}
}

// clearIdle retracts w's announcement. Returns true for the single
// caller that actually consumed it — that caller owns the wakeup.
func (r *Runtime) clearIdle(w *worker) bool {
	if w.waiting.CompareAndSwap(true, false) {
		r.idleWaiters.Add(-1)
		return true
	}
	return false
}

// wakeOneThief wakes one announced idle worker that has w on its victim
// list, if any, reporting whether a token was delivered. Producers call
// it after making work visible in w's deque or shard; the common
// no-waiters case is a single atomic load.
func (w *worker) wakeOneThief() bool {
	r := w.rt
	if r.idleWaiters.Load() == 0 {
		return false
	}
	b := r.loadPolicy()
	if b == nil {
		return false
	}
	for _, t := range b.thieves[w.id] {
		if r.clearIdle(t) {
			r.wakeups.Add(1)
			t.unpark()
			return true
		}
	}
	return false
}

// wakeForInject delivers the post-push wakeup for a job injected into
// w's shard: the owner itself first (it drains its own shard before
// anything else, so this is the locality fast path), then one of the
// owner's announced thieves, then any announced waiter at all — the
// catch-all that covers a job landing in the shard of a worker revoked
// between the producer's policy load and its push, whose thief list may
// already be gone from the rebuilt wake graph.
func (r *Runtime) wakeForInject(w *worker) {
	if r.idleWaiters.Load() == 0 {
		return
	}
	if r.clearIdle(w) {
		r.wakeups.Add(1)
		w.unpark()
		return
	}
	if w.wakeOneThief() {
		return
	}
	for _, o := range r.workerList {
		if r.clearIdle(o) {
			r.wakeups.Add(1)
			o.unpark()
			return
		}
	}
}

// wakeAllIdle wakes every announced waiter. The helper calls it after
// swapping in a rebuilt victim policy: a waiter may have parked against
// the old victim lists, and work pushed by a newly entered worker in
// the window before the swap would wake nobody under the old reverse
// lists. Re-checking against the new bundle closes that window.
// Shutdown promptness does not depend on it — stop() unparks directly.
func (r *Runtime) wakeAllIdle() {
	if r.idleWaiters.Load() == 0 {
		return
	}
	for _, w := range r.workerList {
		if r.clearIdle(w) {
			r.wakeups.Add(1)
			w.unpark()
		}
	}
}

// wakeWorthy is the check-again-after-announce half of the protocol: it
// re-examines every source the subsequent park would be woken for. Any
// producer whose work this load misses necessarily sees w's announced
// flag afterwards and delivers a token.
func (w *worker) wakeWorthy() bool {
	r := w.rt
	if r.finished.Load() || w.state.Load() != stateActive {
		return true // let the loop re-dispatch on state
	}
	if w.deque.Len() > 0 {
		return true // injected work
	}
	if b := r.loadPolicy(); b != nil {
		// Load the victim list fresh: a policy swapped in between the
		// last sweep and this announce must be honoured here.
		w.victimBuf = b.policy.VictimsInto(w.id, w.victimBuf[:0])
		for _, v := range w.victimBuf {
			if vw := r.workerByID(v); vw != nil && vw.deque.Len() > 0 {
				return true
			}
		}
	}
	if w.pickup {
		// An injection shard somewhere holds a job. The depth sweep
		// replaces the old aggregate-counter load; each Len is
		// racy-but-recent, and the parking protocol covers the race — a
		// producer whose push this sweep misses necessarily observes the
		// announced flag afterwards and delivers a token.
		for _, vw := range r.workerList {
			if vw.shard.Len() > 0 {
				return true
			}
		}
	}
	return false
}

// idleWait is the committed idle path of an active worker: announce,
// re-check, then block until woken. A persistent-mode Submit that misses
// the wakeWorthy re-check necessarily sees the announced flag afterwards
// and delivers a token through wakeForInject, so there is no polling
// interval and no backoff cap between submission and start.
func (w *worker) idleWait() {
	r := w.rt
	r.announceIdle(w)
	if w.wakeWorthy() {
		r.clearIdle(w)
		return
	}
	// A parking worker publishes an empty bag: its queue is empty and it
	// is about to sleep, so a stale high-water mark from its last active
	// window must not keep feeding the estimator's increase condition.
	w.hwm.Store(0)
	r.parks.Add(1)
	t0 := nowNS()
	// The same reading closes the loop's open search episode and starts
	// the idle window — the search/idle boundary is exact by construction.
	w.closeSearch(t0)
	<-w.parkC
	r.clearIdle(w)
	end := nowNS()
	w.phaseTS = end
	dur := end - t0
	w.addIdle(dur)
	w.emit(obs.KindPark, obs.NoWorker, dur)
}

// parkBlocked is the wait of a worker outside the allotment (parked or
// fully drained): it is not an eligible thief, so it does not announce
// into the idle set — only a grant or stop may (and will) wake it. No
// timeout fallback: both wake paths store their reason before sending
// the token, and the loop re-reads state after every wake, so a stale
// token can only cause one spurious re-check, never a missed signal.
func (w *worker) parkBlocked() {
	w.hwm.Store(0)
	w.rt.parks.Add(1)
	t0 := nowNS()
	w.closeSearch(t0)
	<-w.parkC
	end := nowNS()
	w.phaseTS = end
	dur := end - t0
	w.addIdle(dur)
	w.emit(obs.KindPark, obs.NoWorker, dur)
}
