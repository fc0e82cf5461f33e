package wsrt

import (
	"fmt"
	"sync/atomic"

	"palirria/internal/deque"
)

// Reservation-ladder tuning.
const (
	// reserveRetries bounds the CAS attempts against the global slack
	// pool. A producer racing 63 others at the cap boundary loses at most
	// this many races before degrading to a single wait-free claim and,
	// failing that, to ErrSubmitQueueFull — the submit path cannot
	// livelock (TestSubmitNoLivelockAtCap).
	reserveRetries = 4
	// creditBatch is the extra slack a refill pulls beyond the immediate
	// need, caching it on the producer's shard so subsequent Submits
	// reserve locally without touching the global pool.
	creditBatch = 8
)

// ledger is the striped reservation ledger that makes SubmitQueueCap an
// exact cross-shard bound without a counter every producer shares. Each
// unit of the cap is in exactly one of three places at any instant: the
// global slack pool (capFree), one shard's cached credit cell
// (Shard.CreditBalance), or an outstanding reservation backing a queued
// job. Producers claim units through a bounded ladder (reserveUpTo),
// consumers return one per successful shard pop (releaseSlot), and every
// transfer removes from its source before adding to its destination, so
// the three never sum past the cap. The ring hands each element to exactly
// one popper, so a unit cannot be released twice. The ledger knows shards
// only — not workers, not the Runtime.
type ledger struct {
	limit int64
	// creditCap bounds how much credit a release parks on one shard before
	// overflowing to capFree: low enough that credit cannot strand on cold
	// shards and starve producers, high enough that a loaded shard refills
	// rarely.
	creditCap int64
	shards    []*deque.Shard[rtTask]

	// capFree is padded so the refill/overflow traffic cannot false-share
	// with the read-mostly fields around it.
	_       [64]byte
	capFree atomic.Int64
	_       [56]byte
}

// init puts the whole cap in the global slack pool; shard credit caches
// fill lazily as producers refill and consumers release. creditCap is half
// the even share of the cap, floor 2; scavenging visits every shard, so a
// producer fails only when the cap is genuinely exhausted.
func (l *ledger) init(limit int, shards []*deque.Shard[rtTask]) {
	l.limit = int64(limit)
	l.shards = shards
	l.capFree.Store(l.limit)
	l.creditCap = 2
	if n := int64(2 * len(shards)); n > 0 {
		l.creditCap = max(2, l.limit/n)
	}
}

// reserveUpTo claims up to want backlog units for pushes into shard s,
// returning how many were claimed (0 when the cap is saturated). The
// ladder: the shard's own credit cache (one CAS on an uncontended line),
// a batched refill from the global slack pool, then scavenging credit
// cached on sibling shards (one CAS attempt each). Every rung is bounded
// and every transfer removes from its source before adding anywhere, so
// the cap bound holds at every instant and a producer can never spin
// unboundedly. In the absence of concurrent producers the ladder is
// exhaustive — it finds every free unit in the system — which keeps
// SubmitQueueCap an exact capacity, not merely an upper bound.
func (l *ledger) reserveUpTo(s *deque.Shard[rtTask], want int64) int64 {
	got := s.TryReserve(want)
	if got < want {
		got += l.refillReserve(s, want-got)
	}
	if got < want {
		got += l.scavengeReserve(s, want-got)
	}
	return got
}

// refillReserve claims up to need units from the global slack pool,
// pulling a bounded batch of extra credit onto s while it is there. The
// CAS loop is bounded; past it, one wait-free Add claims a single unit or
// undoes itself.
func (l *ledger) refillReserve(s *deque.Shard[rtTask], need int64) int64 {
	for try := 0; try < reserveRetries; try++ {
		free := l.capFree.Load()
		if free <= 0 {
			return 0
		}
		take := min(need+min(free/2, creditBatch), free)
		if l.capFree.CompareAndSwap(free, free-take) {
			if take > need {
				s.Refund(take - need)
				return need
			}
			return take
		}
	}
	// Contended past the retry bound: claim one unit wait-free. A
	// negative result means the pool was empty; undo and give up — the
	// caller falls through to scavenging, then to ErrSubmitQueueFull.
	if l.capFree.Add(-1) >= 0 {
		return 1
	}
	l.capFree.Add(1)
	return 0
}

// scavengeReserve pulls credit cached on sibling shards, one bounded
// attempt per shard, refunding any excess to s.
func (l *ledger) scavengeReserve(s *deque.Shard[rtTask], need int64) int64 {
	var got int64
	for _, v := range l.shards {
		if v == s {
			continue
		}
		if got += v.StealCredit(); got >= need {
			break
		}
	}
	if got > need {
		s.Refund(got - need)
		return need
	}
	return got
}

// releaseSlot returns one reservation unit after a successful pop from
// shard s. The unit lands on the popped shard's credit cache unless that
// cache is already rich, in which case it overflows to the global pool so
// cold shards cannot hoard the cap.
func (l *ledger) releaseSlot(s *deque.Shard[rtTask]) {
	if s.CreditBalance() >= l.creditCap {
		l.capFree.Add(1)
		return
	}
	s.Refund(1)
}

// slack is the unreserved capacity: the global pool plus every shard's
// credit cache (racy-but-recent, like the depths it is exported beside).
func (l *ledger) slack() int64 {
	t := l.capFree.Load()
	for _, s := range l.shards {
		t += s.CreditBalance()
	}
	return t
}

// audit checks a quiescent ledger: the shards must be empty and every unit
// of the cap back in the global pool or a shard's credit cache. An error
// means a reservation leaked (the cap quietly shrank) or was released
// twice (the bound went soft).
func (l *ledger) audit() error {
	free := l.capFree.Load()
	if free < 0 {
		return fmt.Errorf("wsrt: submit ledger: global slack pool is negative (%d)", free)
	}
	var credits, backlog int64
	for i, s := range l.shards {
		c := s.CreditBalance()
		if c < 0 {
			return fmt.Errorf("wsrt: submit ledger: shard %d credit is negative (%d)", i, c)
		}
		credits += c
		backlog += int64(s.Len())
	}
	if backlog != 0 {
		return fmt.Errorf("wsrt: submit ledger: %d jobs still queued after the shutdown flush", backlog)
	}
	if free+credits != l.limit {
		return fmt.Errorf("wsrt: submit ledger unbalanced: free %d + shard credits %d != cap %d", free, credits, l.limit)
	}
	return nil
}
