package deque

import (
	"fmt"
	"sync/atomic"
)

// ChaseLev is a bounded lock-free work-stealing deque after Chase & Lev
// (SPAA'05), adapted to WOOL's bounded-queue discipline. The owner thread
// calls PushBottom and PopBottom; any number of thief threads may call
// StealTop concurrently.
//
// The implementation uses a fixed-capacity circular array (capacity must be
// a power of two). Unlike the original, the array never grows: WOOL task
// queues are statically bounded, and the runtime executes spawns inline when
// the queue is full, which bounds memory and — more importantly for
// Palirria — keeps µ(Q) meaningful.
//
// Memory-model note: every slot is an atomic.Pointer, so a thief that wins
// the CAS on top reads the element with an atomic load that happens-after
// the owner's atomic store in PushBottom. This is stricter than the C11
// original needs, but it is simple, portable, and race-detector-clean.
type ChaseLev[T any] struct {
	top    atomic.Int64 // next index to steal
	bottom atomic.Int64 // next index to push; owner-only writes
	mask   int64
	buf    []atomic.Pointer[T]
}

// NewChaseLev returns a deque with the given capacity (rounded up to a
// power of two, minimum 2).
func NewChaseLev[T any](capacity int) (*ChaseLev[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("deque: capacity %d must be positive", capacity)
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &ChaseLev[T]{mask: int64(n - 1), buf: make([]atomic.Pointer[T], n)}, nil
}

// MustChaseLev is NewChaseLev that panics on error.
func MustChaseLev[T any](capacity int) *ChaseLev[T] {
	d, err := NewChaseLev[T](capacity)
	if err != nil {
		panic(err)
	}
	return d
}

// Cap returns the deque capacity.
func (d *ChaseLev[T]) Cap() int { return len(d.buf) }

// Len returns a snapshot of the number of queued tasks. Concurrent steals
// may make the value stale immediately; Palirria reads it as an estimation
// metric, for which a racy-but-recent snapshot is exactly what the paper's
// runtime reads too.
func (d *ChaseLev[T]) Len() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if n := b - t; n > 0 {
		return int(n)
	}
	return 0
}

// PushBottom appends a task at the bottom. Owner-only. Returns false when
// the deque is full.
func (d *ChaseLev[T]) PushBottom(v *T) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.buf)) {
		return false
	}
	d.buf[b&d.mask].Store(v)
	d.bottom.Store(b + 1)
	return true
}

// PopBottom removes and returns the most recently pushed task. Owner-only.
// Both PopBottom and StealTop clear the slot they take, so the ring never
// keeps an element reachable after it has been handed out.
func (d *ChaseLev[T]) PopBottom() (*T, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Deque was empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil, false
	}
	slot := &d.buf[b&d.mask]
	v := slot.Load()
	if t != b {
		// More than one element remained; no race with thieves possible.
		slot.Store(nil)
		return v, true
	}
	// Single element: race against thieves for it via CAS on top.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(b + 1)
	if !won {
		return nil, false
	}
	slot.Store(nil)
	return v, true
}

// BottomIs reports whether the most recently pushed element is v and has
// not (yet) been stolen. Owner-only. The answer may be invalidated by a
// concurrent thief immediately, so callers must re-verify via PopBottom —
// the WOOL sync path does exactly that: peek, conditional pop, and fall
// back to waiting when either step fails.
func (d *ChaseLev[T]) BottomIs(v *T) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b <= t {
		return false
	}
	return d.buf[(b-1)&d.mask].Load() == v
}

// StealTop removes and returns the oldest task. Safe for concurrent thieves
// and concurrent with owner operations. Returns (nil, false) when the deque
// is (or appears) empty; a thief that loses a race simply retries its next
// victim, so false negatives only cost one extra probe.
//
// The winning thief clears the slot with a compare-and-swap against the
// element it took: once top has moved, the owner may already have pushed
// a new element into that slot, which the CAS then leaves alone. This
// relies on an element never being pushed again while a thief may still
// hold it. The runtime recycles its task records, but a record is pushed
// again only after its thief has run it and published that it is done,
// which happens after this CAS.
func (d *ChaseLev[T]) StealTop() (*T, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	slot := &d.buf[t&d.mask]
	v := slot.Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	slot.CompareAndSwap(v, nil)
	return v, true
}
