package deque

import (
	"fmt"
	"sync/atomic"
)

// Shard is a bounded lock-free multi-producer queue after Vyukov's bounded
// MPMC ring, used by the runtime as a per-worker external-injection shard:
// any number of producers may Push concurrently, and the owning worker (or
// a thief draining a sibling shard, or the shutdown flush) may Pop
// concurrently. It is the "thin multi-producer head" bolted next to the
// Chase-Lev deques — spawned work stays on the owner-only ChaseLev ring,
// injected work arrives here.
//
// Each slot carries a sequence number that encodes which lap of the ring
// it belongs to: a producer claims the slot whose sequence equals the
// enqueue ticket, publishes the value, and bumps the sequence to hand the
// slot to consumers; a consumer does the mirror image and bumps the
// sequence a full lap ahead to hand the slot back to producers. Producers
// never spin on a full ring and consumers never spin on an empty one —
// both report failure immediately, which is what the runtime's bounded
// submit path and opportunistic drain want.
// In addition to the ring itself, every shard carries a reservation
// credit cell (TryReserve/Refund/StealCredit/CreditBalance), padded onto
// its own cache line: a shard-local counter a producer can reserve
// against instead of CASing one global word. Nothing in the runtime
// calls it — wsrt enforces its submission cap with a single gate word
// (see wsrt/gate.go) — and it stays for the benchmark's
// deque.shard_reserve_refund_ns probe. The shard itself is policy-free:
// it only moves integers.
type Shard[T any] struct {
	mask   uint64
	slots  []shardSlot[T]
	_      [48]byte // keep enq/deq off the slots' cache lines
	enq    atomic.Uint64
	_      [56]byte // and off each other's
	deq    atomic.Uint64
	_      [56]byte // and the credit cell off both hot ring counters
	credit atomic.Int64
}

type shardSlot[T any] struct {
	seq atomic.Uint64
	val atomic.Pointer[T]
}

// NewShard returns a shard with the given capacity (rounded up to a power
// of two, minimum 2).
func NewShard[T any](capacity int) (*Shard[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("deque: shard capacity %d must be positive", capacity)
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	s := &Shard[T]{mask: uint64(n - 1), slots: make([]shardSlot[T], n)}
	for i := range s.slots {
		s.slots[i].seq.Store(uint64(i))
	}
	return s, nil
}

// MustShard is NewShard that panics on error.
func MustShard[T any](capacity int) *Shard[T] {
	s, err := NewShard[T](capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Cap returns the shard capacity.
func (s *Shard[T]) Cap() int { return len(s.slots) }

// Len returns a snapshot of the number of queued elements, counting slots
// already claimed by a producer whose value may not be published yet. Like
// ChaseLev.Len it is racy-but-recent — good enough for depth-based shard
// choice and metrics, never for correctness decisions.
func (s *Shard[T]) Len() int {
	e := s.enq.Load()
	d := s.deq.Load()
	if e <= d {
		return 0
	}
	if n := e - d; n <= uint64(len(s.slots)) {
		return int(n)
	}
	return len(s.slots)
}

// Pushes returns the total number of elements ever enqueued (the enqueue
// ticket counter). Every successful Push claims exactly one ticket before
// publishing, so the count includes at most a handful of claimed-but-
// mid-publish slots — racy-but-recent, monotonically non-decreasing, and
// exact once producers quiesce. The runtime derives its injected-total
// metric by summing this across shards.
func (s *Shard[T]) Pushes() uint64 { return s.enq.Load() }

// TryReserve claims up to want units of the shard's cached reservation
// credit, returning how many were claimed (possibly 0). The CAS loop is
// bounded: a producer that keeps losing the race walks away empty-handed
// rather than spinning.
func (s *Shard[T]) TryReserve(want int64) int64 {
	if want <= 0 {
		return 0
	}
	for try := 0; try < 4; try++ {
		c := s.credit.Load()
		if c <= 0 {
			return 0
		}
		take := want
		if take > c {
			take = c
		}
		if s.credit.CompareAndSwap(c, c-take) {
			return take
		}
	}
	return 0
}

// Refund returns n previously claimed reservation units to this shard's
// credit cell.
func (s *Shard[T]) Refund(n int64) {
	if n > 0 {
		s.credit.Add(n)
	}
}

// StealCredit drains the shard's entire cached credit in one CAS attempt,
// returning how much was taken (0 when empty or when the attempt lost a
// race: a single attempt keeps a scan over many shards bounded).
func (s *Shard[T]) StealCredit() int64 {
	c := s.credit.Load()
	if c <= 0 {
		return 0
	}
	if s.credit.CompareAndSwap(c, 0) {
		return c
	}
	return 0
}

// CreditBalance returns the shard's cached reservation credit.
func (s *Shard[T]) CreditBalance() int64 { return s.credit.Load() }

// Push enqueues v. Safe for any number of concurrent producers (and
// concurrent Pops). Returns false when the ring is full.
func (s *Shard[T]) Push(v *T) bool {
	pos := s.enq.Load()
	for {
		slot := &s.slots[pos&s.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			// Slot is free on this lap: claim the ticket, then publish.
			if s.enq.CompareAndSwap(pos, pos+1) {
				slot.val.Store(v)
				slot.seq.Store(pos + 1)
				return true
			}
			pos = s.enq.Load()
		case seq < pos:
			// The consumer of the previous lap has not recycled the slot:
			// the ring is full.
			return false
		default:
			// Another producer claimed this ticket; take the next one.
			pos = s.enq.Load()
		}
	}
}

// Pop dequeues the oldest published element. Safe for any number of
// concurrent consumers (and concurrent Pushes). Returns (nil, false) when
// the ring is empty — including the transient case where a producer has
// claimed the head slot but not yet published into it, so a caller that
// knows an element is coming (the shutdown flush does) must loop on a
// positive external count rather than trust a single false.
func (s *Shard[T]) Pop() (*T, bool) {
	pos := s.deq.Load()
	for {
		slot := &s.slots[pos&s.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos+1:
			// Published and unclaimed: claim the ticket, then consume.
			if s.deq.CompareAndSwap(pos, pos+1) {
				v := slot.val.Load()
				slot.val.Store(nil)
				// Recycle the slot for the producer one lap ahead.
				slot.seq.Store(pos + s.mask + 1)
				return v, true
			}
			pos = s.deq.Load()
		case seq <= pos:
			// Empty (or the head producer is mid-publish).
			return nil, false
		default:
			// Another consumer claimed this ticket; take the next one.
			pos = s.deq.Load()
		}
	}
}
