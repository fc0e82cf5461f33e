package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestShardSequentialFIFO(t *testing.T) {
	s := MustShard[int](8)
	if s.Cap() != 8 {
		t.Fatalf("cap %d, want 8", s.Cap())
	}
	vals := make([]int, 20)
	for round := 0; round < 3; round++ { // cross the mask a few times
		for i := 0; i < 8; i++ {
			vals[i] = round*8 + i
			if !s.Push(&vals[i]) {
				t.Fatalf("push %d refused with len %d", i, s.Len())
			}
		}
		if extra := 99; s.Push(&extra) {
			t.Fatal("push into a full shard succeeded")
		}
		if s.Len() != 8 {
			t.Fatalf("len %d, want 8", s.Len())
		}
		for i := 0; i < 8; i++ {
			v, ok := s.Pop()
			if !ok {
				t.Fatalf("pop %d failed with len %d", i, s.Len())
			}
			if *v != round*8+i {
				t.Fatalf("pop %d, want %d (FIFO violated)", *v, round*8+i)
			}
		}
		if _, ok := s.Pop(); ok {
			t.Fatal("pop from an empty shard succeeded")
		}
	}
}

func TestShardCapacityRounding(t *testing.T) {
	if got := MustShard[int](5).Cap(); got != 8 {
		t.Fatalf("cap(5) rounded to %d, want 8", got)
	}
	if got := MustShard[int](1).Cap(); got != 2 {
		t.Fatalf("cap(1) rounded to %d, want 2", got)
	}
	if _, err := NewShard[int](0); err == nil {
		t.Fatal("NewShard(0) accepted")
	}
}

// TestShardMPMCStress hammers a small ring from many producers and many
// consumers and checks that every pushed element is popped exactly once.
func TestShardMPMCStress(t *testing.T) {
	const (
		producers = 8
		consumers = 8
		perProd   = 500
	)
	s := MustShard[int](16)
	total := producers * perProd
	vals := make([]int, total)
	seen := make([]atomic.Int32, total)
	var popped atomic.Int64

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				idx := p*perProd + i
				vals[idx] = idx
				for !s.Push(&vals[idx]) {
					runtime.Gosched() // full: let consumers make room
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for popped.Load() < int64(total) {
				v, ok := s.Pop()
				if !ok {
					runtime.Gosched()
					continue
				}
				seen[*v].Add(1)
				popped.Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("element %d popped %d times", i, n)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("shard non-empty after full drain")
	}
}

// TestShardLenBounds checks Len never escapes [0, Cap] under concurrent
// churn — the runtime uses it for power-of-two-choices shard picking and
// depth gauges, both of which assume a sane range.
func TestShardLenBounds(t *testing.T) {
	s := MustShard[int](4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := 7
			for !stop.Load() {
				s.Push(&v)
				s.Pop()
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if n := s.Len(); n < 0 || n > s.Cap() {
			stop.Store(true)
			t.Fatalf("len %d out of [0,%d]", n, s.Cap())
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestShardCreditCell covers the reservation-credit accessors: claims are
// bounded and never overdraw, refunds restore, and StealCredit drains
// whole balances.
func TestShardCreditCell(t *testing.T) {
	s := MustShard[int](8)
	if got := s.CreditBalance(); got != 0 {
		t.Fatalf("fresh shard credit %d, want 0", got)
	}
	if got := s.TryReserve(3); got != 0 {
		t.Fatalf("TryReserve on empty credit claimed %d, want 0", got)
	}
	s.Refund(5)
	if got := s.TryReserve(3); got != 3 {
		t.Fatalf("TryReserve(3) with balance 5 claimed %d, want 3", got)
	}
	if got := s.TryReserve(10); got != 2 {
		t.Fatalf("TryReserve(10) with balance 2 claimed %d, want 2 (partial)", got)
	}
	if got := s.TryReserve(1); got != 0 {
		t.Fatalf("TryReserve on drained credit claimed %d, want 0", got)
	}
	s.Refund(4)
	if got := s.StealCredit(); got != 4 {
		t.Fatalf("StealCredit took %d, want the whole balance 4", got)
	}
	if got := s.CreditBalance(); got != 0 {
		t.Fatalf("post-steal balance %d, want 0", got)
	}
	if got := s.TryReserve(0); got != 0 {
		t.Fatalf("TryReserve(0) claimed %d, want 0", got)
	}
}

// TestShardCreditConcurrentConservation hammers the credit cell from
// claiming and refunding goroutines and checks conservation: units
// claimed minus units refunded equals the balance drop.
func TestShardCreditConcurrentConservation(t *testing.T) {
	s := MustShard[int](8)
	const seed = 1 << 20
	s.Refund(seed)
	var claimed, refunded atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				switch {
				case p%2 == 0:
					claimed.Add(s.TryReserve(int64(i%5 + 1)))
				case i%7 == 0:
					claimed.Add(s.StealCredit())
				default:
					s.Refund(2)
					refunded.Add(2)
				}
			}
		}(p)
	}
	wg.Wait()
	want := seed + refunded.Load() - claimed.Load()
	if got := s.CreditBalance(); got != want {
		t.Fatalf("credit balance %d after hammer, want %d (seed %d + refunded %d - claimed %d)",
			got, want, int64(seed), refunded.Load(), claimed.Load())
	}
	if got := s.CreditBalance(); got < 0 {
		t.Fatalf("credit balance went negative: %d", got)
	}
}

// TestShardPushesCounter checks the enqueue-ticket counter the runtime
// derives its injected-total metric from.
func TestShardPushesCounter(t *testing.T) {
	s := MustShard[int](4)
	v := 1
	if got := s.Pushes(); got != 0 {
		t.Fatalf("fresh shard Pushes %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if !s.Push(&v) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	s.Pop()
	s.Push(&v)
	if got := s.Pushes(); got != 4 {
		t.Fatalf("Pushes %d after 4 pushes and a pop, want 4 (monotone, pops don't subtract)", got)
	}
}
