package wsrt

import (
	"testing"

	"palirria/internal/deque"
)

// TestLedgerConservesCapOnBareShards walks the reservation ledger through
// reserve → refill → scavenge → release → audit on bare shards — no
// Runtime, no workers — and checks after every step that each unit of the
// cap is in exactly one place: free + credits (slack) + outstanding == cap.
func TestLedgerConservesCapOnBareShards(t *testing.T) {
	const limit = 16
	shards := []*deque.Shard[rtTask]{
		deque.MustShard[rtTask](limit), deque.MustShard[rtTask](limit), deque.MustShard[rtTask](limit),
	}
	var l ledger
	l.init(limit, shards)
	if l.creditCap != 2 {
		t.Fatalf("creditCap = %d, want the floor 2 (16 / (2*3) = 2)", l.creditCap)
	}
	var outstanding int64
	check := func(step string) {
		t.Helper()
		if got := l.slack() + outstanding; got != limit {
			t.Fatalf("%s: slack %d + outstanding %d = %d, want cap %d",
				step, l.slack(), outstanding, got, limit)
		}
	}
	// push reserves n units against s and backs each with a queued task.
	push := func(s *deque.Shard[rtTask], n int64) {
		t.Helper()
		for i := int64(0); i < n; i++ {
			if !s.Push(&rtTask{}) {
				t.Fatal("push under a reservation failed")
			}
		}
		outstanding += n
	}
	check("fresh")
	if l.slack() != limit || shards[0].CreditBalance() != 0 {
		t.Fatal("a fresh ledger keeps the whole cap in the global pool")
	}

	// Refill: shard 0 has no credit, so the claim comes from the global
	// pool and caches a batch of extra credit on the shard.
	if got := l.reserveUpTo(shards[0], 1); got != 1 {
		t.Fatalf("refill reserve = %d, want 1", got)
	}
	push(shards[0], 1)
	check("refill")
	cached := shards[0].CreditBalance()
	if cached == 0 {
		t.Fatal("refill cached no credit on the producer's shard")
	}

	// Shard-local: the next claim is served from that cache alone.
	free := l.slack() - cached
	if got := l.reserveUpTo(shards[0], 1); got != 1 {
		t.Fatalf("local reserve = %d, want 1", got)
	}
	push(shards[0], 1)
	check("local")
	if shards[0].CreditBalance() != cached-1 || l.slack()-shards[0].CreditBalance() != free {
		t.Fatal("a claim the shard's cache could serve touched the global pool")
	}

	// Scavenge: drain the global pool through shard 1, then ask shard 2
	// for everything left — it must find the credit cached on its siblings.
	for l.slack()-shards[0].CreditBalance()-shards[1].CreditBalance() > 0 {
		if got := l.reserveUpTo(shards[1], 1); got != 1 {
			t.Fatalf("draining reserve = %d, want 1", got)
		}
		push(shards[1], 1)
		check("drain")
	}
	left := l.slack()
	if left == 0 {
		t.Fatal("no sibling credit left to scavenge; the scenario is vacuous")
	}
	if got := l.reserveUpTo(shards[2], left+5); got != left {
		t.Fatalf("scavenging reserve = %d, want every remaining unit %d", got, left)
	}
	push(shards[2], left)
	check("scavenge")
	if l.slack() != 0 {
		t.Fatalf("slack = %d after an exhaustive claim, want 0", l.slack())
	}
	if got := l.reserveUpTo(shards[0], 1); got != 0 {
		t.Fatalf("reserve at a saturated cap = %d, want 0", got)
	}
	if l.audit() == nil {
		t.Fatal("audit passed with jobs still queued")
	}

	// Release: one unit per pop; a rich shard overflows to the global pool.
	for _, s := range shards {
		for {
			if _, ok := s.Pop(); !ok {
				break
			}
			l.releaseSlot(s)
			outstanding--
			check("release")
			if c := s.CreditBalance(); c > l.creditCap {
				t.Fatalf("release parked %d units on one shard, over creditCap %d", c, l.creditCap)
			}
		}
	}
	if outstanding != 0 || l.slack() != limit {
		t.Fatalf("after the drain: outstanding %d, slack %d, want 0 and %d", outstanding, l.slack(), limit)
	}
	if err := l.audit(); err != nil {
		t.Fatalf("audit of a balanced ledger: %v", err)
	}

	// The audit catches both failure directions.
	shards[0].Refund(1)
	if l.audit() == nil {
		t.Fatal("audit missed a double release")
	}
	if l.reserveUpTo(shards[0], 2) != 2 {
		t.Fatal("could not take the extra unit and one more back")
	}
	if l.audit() == nil {
		t.Fatal("audit missed a leaked reservation")
	}
}
