package wsrt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/topo"
)

// TestSubmitNoLivelockAtCap pins the progress contract of the submission
// gate: producers hammering a saturated backlog must each get
// ErrSubmitQueueFull promptly — a full gate refuses on its load, before
// any CAS, so contention at the cap boundary degrades to an error return,
// never to a spin. The regression this guards against: a retry loop that
// waits for room would let 16 producers livelock each other indefinitely
// when the cap is reached.
func TestSubmitNoLivelockAtCap(t *testing.T) {
	const cap = 8
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10, SubmitQueueCap: cap})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	gate := blockAllWorkers(t, rt, len(rt.workerList))
	// Fill the backlog to exactly the cap. The gate is one exact count, so
	// every one of these must be accepted.
	for i := 0; i < cap; i++ {
		if err := rt.Submit(func(c *Ctx) {}, nil); err != nil {
			t.Fatalf("fill submit %d/%d: %v", i, cap, err)
		}
	}
	// Saturated: concurrent producers must all complete their submits
	// within a bounded window, each with ErrSubmitQueueFull.
	const producers, perProducer = 16, 500
	var wrong atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := rt.Submit(func(c *Ctx) {}, nil); !errors.Is(err, ErrSubmitQueueFull) {
					wrong.Add(1)
				}
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(latencyBudget(10 * time.Second)):
		t.Fatal("producers at cap did not finish: submit path livelocked")
	}
	if got := wrong.Load(); got != 0 {
		t.Fatalf("%d submits at a saturated, consumer-blocked cap did not return ErrSubmitQueueFull", got)
	}
	close(gate)
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := rt.VerifySubmitLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestBacklogGaugeNeverNegativeHammer is the regression test for the
// double-decrement class of bugs the submission gate must exclude: under
// concurrent producers, running consumers, allotment
// oscillation (which exercises the takeSibling rescue scan), and a
// racing Shutdown (the flush), the palirria_submit_backlog derivation
// must never go negative and the final gate must balance exactly.
// With the old aggregate counter, any pop path pairing its decrement
// twice sent the gauge negative; backlogTotal is now a sum of
// individually non-negative ring depths, and this test pins that plus
// the exactly-once onDone accounting under -race.
func TestBacklogGaugeNeverNegativeHammer(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10, SubmitQueueCap: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	var accepted, fired atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Producers: mixed Submit and SubmitBatch, tolerating backpressure
	// and the racing shutdown.
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			onDone := func() { fired.Add(1) }
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p%2 == 0 {
					err := rt.Submit(func(c *Ctx) {}, onDone)
					switch {
					case err == nil:
						accepted.Add(1)
					case errors.Is(err, ErrClosed):
						return
					case errors.Is(err, ErrSubmitQueueFull):
						// backpressure: retry
					default:
						t.Errorf("Submit: %v", err)
						return
					}
					continue
				}
				jobs := make([]Job, 1+i%11)
				for j := range jobs {
					jobs[j] = Job{Fn: func(c *Ctx) {}, OnDone: onDone}
				}
				n, err := rt.SubmitBatch(jobs)
				accepted.Add(int64(n))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrSubmitQueueFull) {
					t.Errorf("SubmitBatch: %v", err)
					return
				}
			}
		}(p)
	}
	// Allotment oscillation: revoked workers drain and their shards get
	// rescued by takeSibling — the interleaving the issue calls out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []int{1, 3, 8, 2}
		for i := 0; ; i++ {
			select {
			case <-stop:
				rt.SetMaxWorkers(0)
				return
			default:
				rt.SetMaxWorkers(caps[i%len(caps)])
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	// Sampler: the backlog gauge derivation must be non-negative at every
	// racy read, and the gate's reserved count — one atomic word, so every
	// read is a sound snapshot — must stay within [0, cap].
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if got := rt.backlogTotal(); got < 0 {
				t.Errorf("backlog gauge went negative: %d", got)
				return
			}
			if got := rt.gate.reserved(); got < 0 || got > int64(rt.cfg.SubmitQueueCap) {
				t.Errorf("reserved backlog %d outside [0, SubmitQueueCap %d]", got, rt.cfg.SubmitQueueCap)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	time.Sleep(latencyBudget(80 * time.Millisecond))
	// Shutdown races the still-running producers: the gate's close plus
	// flush must account for every accepted job exactly once.
	if _, err := rt.Shutdown(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got, want := fired.Load(), accepted.Load(); got != want {
		t.Fatalf("onDone fired %d times for %d accepted jobs (ran + flushed must equal accepted)", got, want)
	}
	if got := rt.backlogTotal(); got != 0 {
		t.Fatalf("backlog %d after shutdown flush, want 0", got)
	}
	if err := rt.VerifySubmitLedger(); err != nil {
		t.Fatal(err)
	}
}

// TestPickShardPrefersShallower pins the statistical half of pickShard's
// bounded-staleness contract: the depth comparison reads racy-but-recent
// shard depths, so the pick is only required to be right on average —
// with one deep shard among n, power-of-two-choices lands on it only
// when both candidates are it (probability 1/n²), versus 1/n for a
// depth-blind uniform pick. Correctness never depends on the read being
// fresh (capacity is the gate's job); this test is what the contract
// in pickShard's doc comment points at.
func TestPickShardPrefersShallower(t *testing.T) {
	// The member counts cover a power of two and two non-powers-of-two:
	// the old `seq % n` candidate reduction was modulo-biased toward low
	// indices for non-power-of-two n; Lemire's multiply-shift reduction is
	// exactly uniform for every n, so the p2c bound below holds across the
	// table.
	for _, n := range []int{3, 4, 6} {
		n := n
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			rt, err := New(Config{
				Mesh: topo.MustMesh(n, 1), Source: 0, InitialDiaspora: 10,
				SubmitQueueCap: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Not started: pickShard only needs the policy bundle New installed.
			b := rt.loadPolicy()
			if b == nil || len(b.members) != n {
				t.Fatalf("expected a %d-member policy bundle, got %+v", n, b)
			}
			deep := b.members[0]
			for i := 0; i < 16; i++ {
				if !deep.shard.Push(&rtTask{fn: func(*Ctx) {}}) {
					t.Fatal("seeding the deep shard failed")
				}
			}
			const trials = 4000
			deepPicks := 0
			for i := 0; i < trials; i++ {
				if rt.pickShard(b) == deep {
					deepPicks++
				}
			}
			// Expected ~ trials/n²; a depth-blind uniform pick would give
			// trials/n. The threshold is the midpoint of the two — 20+
			// standard deviations above the p2c expectation for every n in
			// the table, unreachable by noise, yet decisively below uniform.
			threshold := (trials/(n*n) + trials/n) / 2
			if deepPicks >= threshold {
				t.Fatalf("deep shard picked %d/%d times; p2c should avoid it (expected ~%d, uniform would be %d)",
					deepPicks, trials, trials/(n*n), trials/n)
			}
		})
	}
}

// TestSubmitCapInvariantProperty is the property test the tentpole's
// bound rests on: across seeded interleavings of Submit, SubmitBatch,
// owner drains, sibling rescues, allotment churn, and the shutdown
// flush, the number of reserved backlog units (queued-but-unstarted jobs
// plus pushes under way) stays within [0, SubmitQueueCap] at every
// sample, and after shutdown every unit is back in the gate exactly
// once. Each sub-case derives its shape from the seed so
// CI's -shuffle=on and -race runs walk distinct interleavings.
func TestSubmitCapInvariantProperty(t *testing.T) {
	cases := []struct {
		seed      uint64
		cols      int
		cap       int
		producers int
		batchMax  int // 0 = plain Submit only
	}{
		{seed: 1, cols: 2, cap: 4, producers: 2, batchMax: 0},
		{seed: 2, cols: 2, cap: 16, producers: 4, batchMax: 6},
		{seed: 3, cols: 4, cap: 64, producers: 8, batchMax: 24},
		{seed: 4, cols: 4, cap: 7, producers: 6, batchMax: 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("seed=%d/cap=%d/producers=%d", tc.seed, tc.cap, tc.producers), func(t *testing.T) {
			rt, err := New(Config{
				Mesh: topo.MustMesh(tc.cols, 2), Source: 0, InitialDiaspora: 10,
				SubmitQueueCap: tc.cap, Seed: tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			var accepted, fired atomic.Int64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for p := 0; p < tc.producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					// Per-producer xorshift stream seeded from the case seed:
					// deterministic shapes, distinct per producer.
					x := tc.seed*0x9e3779b97f4a7c15 + uint64(p) + 1
					next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
					onDone := func() { fired.Add(1) }
					for {
						select {
						case <-stop:
							return
						default:
						}
						if tc.batchMax == 0 || next()%2 == 0 {
							err := rt.Submit(func(c *Ctx) {}, onDone)
							if err == nil {
								accepted.Add(1)
							} else if errors.Is(err, ErrClosed) {
								return
							} else if !errors.Is(err, ErrSubmitQueueFull) {
								t.Errorf("Submit: %v", err)
								return
							}
							continue
						}
						jobs := make([]Job, 1+int(next()%uint64(tc.batchMax)))
						for j := range jobs {
							jobs[j] = Job{Fn: func(c *Ctx) {}, OnDone: onDone}
						}
						n, err := rt.SubmitBatch(jobs)
						accepted.Add(int64(n))
						if errors.Is(err, ErrClosed) {
							return
						}
						if err != nil && !errors.Is(err, ErrSubmitQueueFull) {
							t.Errorf("SubmitBatch: %v", err)
							return
						}
					}
				}(p)
			}
			// Allotment churn drives drains and sibling rescues into the mix.
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := tc.seed | 1
				for {
					select {
					case <-stop:
						rt.SetMaxWorkers(0)
						return
					default:
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						rt.SetMaxWorkers(1 + int(x%uint64(2*tc.cols)))
						time.Sleep(time.Millisecond)
					}
				}
			}()
			// The property: the gate's reserved count is one word, so each
			// sample is an exact snapshot, and it never leaves [0, cap].
			deadline := time.Now().Add(latencyBudget(40 * time.Millisecond))
			for time.Now().Before(deadline) {
				if got := rt.gate.reserved(); got < 0 || got > int64(tc.cap) {
					close(stop)
					t.Fatalf("reserved backlog %d outside [0, SubmitQueueCap %d]", got, tc.cap)
				}
				time.Sleep(300 * time.Microsecond)
			}
			if _, err := rt.Shutdown(); err != nil {
				t.Fatal(err)
			}
			close(stop)
			wg.Wait()
			if got, want := fired.Load(), accepted.Load(); got != want {
				t.Fatalf("onDone fired %d times for %d accepted jobs", got, want)
			}
			if err := rt.VerifySubmitLedger(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
