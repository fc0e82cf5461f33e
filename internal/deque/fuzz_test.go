package deque

import "testing"

// FuzzQueueModel drives the simulator queue with an arbitrary operation
// tape and compares against a slice-backed reference model.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1})
	// Overfill, drain by steals, then refill: exercises the rejected-push
	// path (the runtime retries PushBottom against a full queue and runs
	// the child inline) and the top-index wrap it races against.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		q := MustQueue[int](8, 4)
		var model []int
		next := 0
		for _, op := range tape {
			switch op % 3 {
			case 0: // push
				ok := q.PushBottom(next)
				if ok != (len(model) < 8) {
					t.Fatalf("push ok=%v with model len %d", ok, len(model))
				}
				if ok {
					model = append(model, next)
				}
				next++
			case 1: // pop
				v, ok := q.PopBottom()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model len %d", ok, len(model))
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if v != want {
						t.Fatalf("pop %d, want %d", v, want)
					}
				}
			case 2: // steal
				v, ok := q.StealTop()
				if ok != (len(model) > 0) {
					t.Fatalf("steal ok=%v with model len %d", ok, len(model))
				}
				if ok {
					want := model[0]
					model = model[1:]
					if v != want {
						t.Fatalf("steal %d, want %d", v, want)
					}
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("len %d != model %d", q.Len(), len(model))
			}
			wantStealable := len(model)
			if wantStealable > 4 {
				wantStealable = 4
			}
			if q.StealableLen() != wantStealable {
				t.Fatalf("stealable %d != %d", q.StealableLen(), wantStealable)
			}
		}
	})
}

// FuzzShardWrap drives the MPSC injection shard single-threaded against a
// FIFO reference model with a tape long enough that the enqueue/dequeue
// tickets cross the power-of-two mask repeatedly — the lap-encoded
// sequence numbers must keep full/empty detection exact across wraps.
func FuzzShardWrap(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1})
	// Fill, refuse, drain, refill: two full laps around an 8-slot ring.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Interleaved push/pop keeps the ring near-full while laps advance.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		s := MustShard[int](8)
		var model []int
		vals := make([]int, len(tape)) // stable backing for pushed pointers
		next := 0
		for _, op := range tape {
			switch op % 2 {
			case 0: // push
				vals[next] = next
				ok := s.Push(&vals[next])
				if ok != (len(model) < 8) {
					t.Fatalf("push ok=%v with model len %d", ok, len(model))
				}
				if ok {
					model = append(model, next)
				}
				next++
			case 1: // pop
				v, ok := s.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v with model len %d", ok, len(model))
				}
				if ok {
					want := model[0]
					model = model[1:]
					if *v != want {
						t.Fatalf("pop %d, want %d (FIFO violated after wrap)", *v, want)
					}
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("len %d != model %d", s.Len(), len(model))
			}
		}
	})
}

// FuzzChaseLevBottomIsWrap checks the BottomIs peek stays truthful after
// the ring indices wrap: at every step, BottomIs must answer true for the
// model's last element and false for any other live pointer. The wsrt
// sync path leans on this peek to decide between inline execution and a
// steal-back wait, so a stale answer after wrap would run a task twice.
func FuzzChaseLevBottomIsWrap(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 2, 2})
	// Steal-drain a full ring then refill past the mask before popping.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		d := MustChaseLev[int](8)
		var model []*int
		vals := make([]int, len(tape)) // stable backing for pushed pointers
		next := 0
		for _, op := range tape {
			switch op % 3 {
			case 0:
				vals[next] = next
				ok := d.PushBottom(&vals[next])
				if ok != (len(model) < 8) {
					t.Fatalf("push ok=%v model %d", ok, len(model))
				}
				if ok {
					model = append(model, &vals[next])
				}
				next++
			case 1:
				v, ok := d.PopBottom()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v model %d", ok, len(model))
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if v != want {
						t.Fatalf("pop %d want %d", *v, *want)
					}
				}
			case 2:
				v, ok := d.StealTop()
				if ok != (len(model) > 0) {
					t.Fatalf("steal ok=%v model %d", ok, len(model))
				}
				if ok {
					want := model[0]
					model = model[1:]
					if v != want {
						t.Fatalf("steal %d want %d", *v, *want)
					}
				}
			}
			checkChaseLevCleared(t, d)
			if len(model) == 0 {
				if next > 0 && d.BottomIs(&vals[0]) {
					t.Fatal("BottomIs true on an empty deque")
				}
				continue
			}
			bottom := model[len(model)-1]
			if !d.BottomIs(bottom) {
				t.Fatalf("BottomIs false for the bottom element %d", *bottom)
			}
			if len(model) > 1 && d.BottomIs(model[0]) {
				t.Fatalf("BottomIs true for the top element %d", *model[0])
			}
		}
	})
}

// FuzzChaseLevSequential drives the Chase-Lev deque single-threaded
// against the same reference model (the concurrent properties are covered
// by the stress tests; this explores ring-wrap and emptiness edges).
func FuzzChaseLevSequential(f *testing.F) {
	f.Add([]byte{0, 0, 2, 1, 0, 2, 2})
	// Full ring refused pushes followed by steal-drain and a second fill
	// wave: the wsrt inline-execution fallback depends on a refused
	// PushBottom leaving the ring intact for later pushes.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		d := MustChaseLev[int](8)
		var model []int
		vals := make([]int, 0, len(tape))
		for _, op := range tape {
			switch op % 3 {
			case 0:
				vals = append(vals, len(vals))
				v := &vals[len(vals)-1]
				ok := d.PushBottom(v)
				if ok != (len(model) < 8) {
					t.Fatalf("push ok=%v model %d", ok, len(model))
				}
				if ok {
					model = append(model, *v)
				}
			case 1:
				v, ok := d.PopBottom()
				if ok != (len(model) > 0) {
					t.Fatalf("pop ok=%v model %d", ok, len(model))
				}
				if ok {
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if *v != want {
						t.Fatalf("pop %d want %d", *v, want)
					}
				}
			case 2:
				v, ok := d.StealTop()
				if ok != (len(model) > 0) {
					t.Fatalf("steal ok=%v model %d", ok, len(model))
				}
				if ok {
					want := model[0]
					model = model[1:]
					if *v != want {
						t.Fatalf("steal %d want %d", *v, want)
					}
				}
			}
			checkChaseLevCleared(t, d)
		}
	})
}

// checkChaseLevCleared fails unless every slot outside the live range
// [top, bottom) is nil: a taken element must not stay reachable from the
// ring.
func checkChaseLevCleared[T any](t *testing.T, d *ChaseLev[T]) {
	t.Helper()
	top, bottom := d.top.Load(), d.bottom.Load()
	for i := range d.buf {
		live := (int64(i)-top)&d.mask < bottom-top
		if !live && d.buf[i].Load() != nil {
			t.Fatalf("slot %d outside [%d, %d) still holds an element", i, top, bottom)
		}
	}
}
