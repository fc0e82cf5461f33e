package wsrt

import (
	"math/rand/v2"
	"slices"
)

// Submit enqueues fn as a new job root; an idle active worker picks it up
// (the paper's serving scenario: independent requests entering a resident
// allotment). onDone, if non-nil, fires after the job and all of its
// spawns complete. Submit never blocks: when the bounded submission
// backlog (SubmitQueueCap, aggregated across all injection shards) is
// saturated it returns ErrSubmitQueueFull and the caller applies its own
// backpressure policy. It is SubmitBatch of one job and shares its
// guarantees.
func (r *Runtime) Submit(fn Func, onDone func()) error {
	one := [1]Job{{Fn: fn, OnDone: onDone}}
	_, err := r.SubmitBatch(one[:])
	return err
}

// Job is one SubmitBatch entry: a job root plus its completion callback.
type Job struct {
	// Fn is the job root.
	Fn Func
	// OnDone, if non-nil, fires exactly once after the job and all of its
	// spawns complete (or when the shutdown flush discards the job).
	OnDone func()
}

// submitBatchChunk is how many jobs one SubmitBatch iteration reserves
// and publishes against a single shard: large enough to amortize the
// gate's CAS to one per eight jobs, small enough that a burst still
// spreads over several shards for parallel pickup.
const submitBatchChunk = 8

// SubmitBatch is the runtime's one submit body. Each chunk of jobs lands in
// one granted worker's injection shard, picked by power-of-two-choices on
// shard depth, so producers on different cores touch different shards
// instead of contending on one global funnel; backlog capacity is reserved
// once per chunk and wakeups coalesce to at most one per touched shard —
// the amortization that makes wave-shaped open-loop load cheap.
//
// Acceptance is a prefix: the first n jobs were enqueued, jobs[n:] were
// not touched. err is nil when every job was accepted, ErrClosed after
// Shutdown, or ErrSubmitQueueFull when the aggregate backlog bound filled.
// A chunk's closed check and reservation are one CAS on the gate, and a
// push under a reservation cannot fail, so an accepted job is always
// observed by Shutdown's flush: its OnDone fires exactly once, because it
// ran or because the flush discarded it. A Shutdown racing the batch can
// close the gate between chunks, so ErrClosed, like ErrSubmitQueueFull,
// may come with n > 0.
func (r *Runtime) SubmitBatch(jobs []Job) (n int, err error) {
	if !r.persistent {
		return 0, ErrNotPersistent
	}
	b := r.loadPolicy()
	var touchedBuf [8]*worker
	touched := touchedBuf[:0]
	for n < len(jobs) && err == nil {
		var got int64
		if got, err = r.gate.reserve(min(int64(len(jobs)-n), submitBatchChunk)); err != nil {
			break
		}
		w := r.pickShard(b)
		for i := int64(0); i < got; i++ {
			t := &rtTask{fn: jobs[n].Fn, onDone: jobs[n].OnDone}
			pw := w
			if !w.shard.Push(t) {
				// Cannot happen by construction (every ring is at least
				// SubmitQueueCap deep and a reservation was claimed), but a
				// scan beats a lost job if the sizing invariant is ever
				// broken.
				if pw = r.pushAny(t); pw == nil {
					r.gate.release(got - i)
					err = ErrSubmitQueueFull
					break
				}
			}
			n++
			if !slices.Contains(touched, pw) {
				touched = append(touched, pw)
			}
		}
	}
	for _, tw := range touched {
		r.wakeForInject(tw)
	}
	return n, err
}

// popShard pops the oldest job root waiting in v's injection shard (nil
// when empty) and releases the reservation that backed it. It is the only
// place a shard is popped, so owner drains, sibling rescues and the
// shutdown flush cannot pair pop and release wrongly.
func (r *Runtime) popShard(v *worker) *rtTask {
	t, ok := v.shard.Pop()
	if !ok {
		return nil
	}
	r.gate.release(1)
	return t
}

// pickShard chooses the injection shard for one job: two candidates over
// the granted members, keeping the shallower (power-of-two-choices).
// rand/v2 draws from a per-P generator, so producers share no cursor state.
//
// Bounded staleness of the depth comparison: Shard.Len is racy-but-recent
// — each load is a linearizable read of the ring's enq-deq counters, so
// by the time the push lands the depths may have moved by whatever pushes
// and pops overlapped this Submit, and the "shallower" pick is only
// statistically shallower, not instantaneously so. That is the contract
// p2c needs: correctness never depends on depth (capacity is enforced by
// the submission gate, and a push after a successful reservation
// cannot fail), depth only steers placement, and steering only requires
// the comparison to be right on average (TestPickShardPrefersShallower
// pins that; the adversarial interleavings belong to the cap-invariant
// property test).
func (r *Runtime) pickShard(b *policyBundle) *worker {
	var ms []*worker
	if b != nil {
		ms = b.members
	}
	if len(ms) == 0 {
		ms = r.workerList // pre-first-rebuild or degenerate grant
	}
	if len(ms) == 1 {
		return ms[0]
	}
	return pickP2C(ms)
}

// pickP2C draws one 64-bit word and takes two uniform candidates from ms
// (power-of-two-choices), keeping the shallower shard. Indices come from
// Lemire's multiply-shift reduction of each 32-bit half — exact
// uniformity for any slice length, so no index has a standing thumb on the
// scale against the depth signal. ms must be non-empty; a duplicate pair
// is harmless.
func pickP2C(ms []*worker) *worker {
	seq := rand.Uint64()
	n := uint64(len(ms))
	w := ms[uint32((uint64(uint32(seq))*n)>>32)]
	if a := ms[uint32(((seq>>32)*n)>>32)]; a.shard.Len() < w.shard.Len() {
		w = a
	}
	return w
}

// pushAny publishes t into the first shard with room: the current
// bundle's granted members first (in grant order), every other worker —
// revoked or never-granted — only after. A revoked worker's shard is a
// valid overflow target of last resort (its jobs are still rescued via
// takeSibling's full scan), but landing there means waiting for a rescue
// sweep instead of the owner's next loop, so it must not shadow a granted
// shard with room (TestPushAnyPrefersGrantedMembers).
func (r *Runtime) pushAny(t *rtTask) *worker {
	var ms []*worker
	if b := r.loadPolicy(); b != nil {
		ms = b.members
	}
	for _, w := range ms {
		if w.shard.Push(t) {
			return w
		}
	}
	for _, w := range r.workerList {
		if isMember(ms, w) {
			continue
		}
		if w.shard.Push(t) {
			return w
		}
	}
	return nil
}

// isMember reports whether w is in ms (member lists are a handful of
// entries; a linear scan beats any map on this path).
func isMember(ms []*worker, w *worker) bool {
	for _, m := range ms {
		if m == w {
			return true
		}
	}
	return false
}
