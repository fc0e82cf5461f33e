package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChaseLevValidation(t *testing.T) {
	if _, err := NewChaseLev[int](0); err == nil {
		t.Error("capacity 0 must fail")
	}
	d := MustChaseLev[int](5)
	if d.Cap() != 8 {
		t.Fatalf("Cap = %d, want 8 (rounded to power of two)", d.Cap())
	}
}

func TestChaseLevMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustChaseLev[int](-1)
}

func TestChaseLevSequentialLIFO(t *testing.T) {
	d := MustChaseLev[int](8)
	vals := []int{10, 20, 30}
	for i := range vals {
		if !d.PushBottom(&vals[i]) {
			t.Fatalf("push %d failed", i)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	for i := len(vals) - 1; i >= 0; i-- {
		v, ok := d.PopBottom()
		if !ok || *v != vals[i] {
			t.Fatalf("pop = (%v, %v), want %d", v, ok, vals[i])
		}
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("pop from empty must fail")
	}
	if d.Len() != 0 {
		t.Fatalf("Len = %d, want 0", d.Len())
	}
}

func TestChaseLevSequentialStealFIFO(t *testing.T) {
	d := MustChaseLev[int](8)
	vals := []int{1, 2, 3, 4}
	for i := range vals {
		d.PushBottom(&vals[i])
	}
	for i := range vals {
		v, ok := d.StealTop()
		if !ok || *v != vals[i] {
			t.Fatalf("steal %d = (%v, %v), want %d", i, v, ok, vals[i])
		}
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("steal from empty must fail")
	}
}

func TestChaseLevOverflow(t *testing.T) {
	d := MustChaseLev[int](2)
	a, b, c := 1, 2, 3
	if !d.PushBottom(&a) || !d.PushBottom(&b) {
		t.Fatal("pushes within capacity failed")
	}
	if d.PushBottom(&c) {
		t.Fatal("push beyond capacity must succeed... must fail")
	}
	// Draining one slot re-enables pushing and the ring wraps correctly.
	d.StealTop()
	if !d.PushBottom(&c) {
		t.Fatal("push after drain failed")
	}
	v, ok := d.PopBottom()
	if !ok || *v != 3 {
		t.Fatalf("pop = (%v, %v), want 3", v, ok)
	}
}

// TestChaseLevConcurrentStress hammers the deque from one owner and many
// thieves and checks that every pushed element is consumed exactly once.
// Run with -race to exercise the memory-model claims.
func TestChaseLevConcurrentStress(t *testing.T) {
	const total = 200000
	nThieves := runtime.GOMAXPROCS(0)
	if nThieves > 8 {
		nThieves = 8
	}
	if nThieves < 2 {
		nThieves = 2
	}
	d := MustChaseLev[int](1024)
	consumed := make([]atomic.Int32, total)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Thieves.
	for i := 0; i < nThieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if v, ok := d.StealTop(); ok {
					consumed[*v].Add(1)
				}
			}
			// Final drain race: let the owner finish the leftovers.
		}()
	}

	// Owner: pushes all values, popping occasionally like a real worker.
	vals := make([]int, total)
	for i := 0; i < total; i++ {
		vals[i] = i
		for !d.PushBottom(&vals[i]) {
			// Queue full: behave like WOOL and execute inline.
			if v, ok := d.PopBottom(); ok {
				consumed[*v].Add(1)
			}
		}
		if i%7 == 0 {
			if v, ok := d.PopBottom(); ok {
				consumed[*v].Add(1)
			}
		}
	}
	// Drain the rest as the owner.
	for {
		v, ok := d.PopBottom()
		if !ok {
			if d.Len() == 0 {
				break
			}
			continue
		}
		consumed[*v].Add(1)
	}
	stop.Store(true)
	wg.Wait()
	// One more drain in case thieves lost races at the very end.
	for {
		v, ok := d.StealTop()
		if !ok {
			break
		}
		consumed[*v].Add(1)
	}

	for i := range consumed {
		if n := consumed[i].Load(); n != 1 {
			t.Fatalf("value %d consumed %d times", i, n)
		}
	}
}

// TestChaseLevOwnerThiefRace drives the classic single-element race: one
// element, owner popping while a thief steals — exactly one must win.
func TestChaseLevOwnerThiefRace(t *testing.T) {
	for iter := 0; iter < 5000; iter++ {
		d := MustChaseLev[int](4)
		v := iter
		d.PushBottom(&v)
		var ownerGot, thiefGot atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, ok := d.PopBottom(); ok {
				ownerGot.Store(true)
			}
		}()
		go func() {
			defer wg.Done()
			if _, ok := d.StealTop(); ok {
				thiefGot.Store(true)
			}
		}()
		wg.Wait()
		if ownerGot.Load() == thiefGot.Load() {
			t.Fatalf("iter %d: owner=%v thief=%v — exactly one must win",
				iter, ownerGot.Load(), thiefGot.Load())
		}
	}
}

// TestChaseLevTakenElementsAreCollectable checks that the deque holds no
// reference to an element it has handed out, on all three take paths: a
// steal, a pop with more left, and a pop that wins the last element.
func TestChaseLevTakenElementsAreCollectable(t *testing.T) {
	type elem struct{ _ [64]byte }
	d := MustChaseLev[elem](8)
	collected := make(chan string, 3)
	for _, name := range []string{"stolen", "popped last", "popped with more left"} {
		e := new(elem)
		runtime.SetFinalizer(e, func(*elem) { collected <- name })
		d.PushBottom(e)
	}
	if _, ok := d.StealTop(); !ok {
		t.Fatal("steal failed")
	}
	if _, ok := d.PopBottom(); !ok {
		t.Fatal("pop failed")
	}
	if _, ok := d.PopBottom(); !ok {
		t.Fatal("pop of the last element failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	got := map[string]bool{}
	for len(got) < 3 && time.Now().Before(deadline) {
		runtime.GC()
		select {
		case name := <-collected:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(d)
	for _, name := range []string{"stolen", "popped last", "popped with more left"} {
		if !got[name] {
			t.Errorf("the %s element was never collected: the deque still references it", name)
		}
	}
}

func BenchmarkChaseLevPushPop(b *testing.B) {
	d := MustChaseLev[int](256)
	v := 1
	for i := 0; i < b.N; i++ {
		d.PushBottom(&v)
		d.PopBottom()
	}
}

func BenchmarkChaseLevStealContention(b *testing.B) {
	d := MustChaseLev[int](1 << 16)
	v := 1
	for i := 0; i < 1<<15; i++ {
		d.PushBottom(&v)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := d.StealTop(); !ok {
				// Refill occasionally is owner-only; just spin on empty.
				continue
			}
		}
	})
}
