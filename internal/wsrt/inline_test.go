package wsrt

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/task"
	"palirria/internal/topo"
)

// fanSpec is a SpawnJoin tree of the given depth and fanout with leaves of
// w cycles. With fanout above the queue capacity every frame overflows
// its deque, so its children run through both inline paths: the overflow
// ones at Spawn, the queued ones when Sync pops them back.
func fanSpec(depth, fanout int, w int64) *task.Spec {
	if depth == 0 {
		return task.Leaf("leaf", w)
	}
	kids := make([]task.Builder, fanout)
	for i := range kids {
		kids[i] = func() *task.Spec { return fanSpec(depth-1, fanout, w) }
	}
	return task.SpawnJoin("fan", w, kids, 0, w)
}

// within fails the test when f does not return in d: a join that waits on
// a child no one will mark done spins forever instead of failing.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v", d)
	}
}

// TestInlineChildrenCountedOnce runs a tree whose frames overflow a
// two-slot deque, so children run inline both at Spawn (queue full) and
// at Sync (popped back). Each inlined child is still one task, and its
// time is counted once, inside its parent's window. On one worker every
// child is inlined and the worker's useful time covers the root's wall.
func TestInlineChildrenCountedOnce(t *testing.T) {
	root := fanSpec(3, 5, 20_000)
	st, err := task.Measure(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, mesh := range []*topo.Mesh{topo.MustMesh(1), smallMesh(t)} {
		t.Run(fmt.Sprintf("%d-workers", mesh.NumCores()), func(t *testing.T) {
			rt, err := New(Config{Mesh: mesh, Source: 0, QueueCap: 2, InitialDiaspora: mesh.MaxDiaspora(0)})
			if err != nil {
				t.Fatal(err)
			}
			t0 := nowNS()
			rep, err := rt.Run(SpecFunc(root))
			if err != nil {
				t.Fatal(err)
			}
			outerWall := nowNS() - t0
			var tasks int64
			const slack = int64(time.Millisecond)
			for id, wr := range rep.Workers {
				tasks += wr.Tasks
				if sum := wr.UsefulNS + wr.SearchNS + wr.IdleNS; sum > outerWall+slack {
					t.Errorf("worker %d: useful(%d)+search(%d)+idle(%d) = %d exceeds wall %d",
						id, wr.UsefulNS, wr.SearchNS, wr.IdleNS, sum, outerWall)
				}
			}
			if tasks != st.Spawns+1 {
				t.Errorf("tasks = %d, want spawns+1 = %d", tasks, st.Spawns+1)
			}
			if mesh.NumCores() == 1 {
				if u := rep.Workers[0].UsefulNS; u < rep.WallNS/2 {
					t.Errorf("one worker: useful %d ns is under half the root's wall %d ns", u, rep.WallNS)
				}
			}
		})
	}
}

// TestInlineChildLeapfrogIsSearch pins the accounting of an inlined child
// that waits at its own Sync for a stolen grandchild: the root pops child
// A back (A runs inline, in the root's window), A's grandchild B is stolen
// and runs for a while, and A leapfrogs until it finishes. That wait is
// search time of the root's worker and must leave the root's useful time.
// Whether A is popped back and B stolen is up to the race between the
// owner's pop and a thief, so a run where it went otherwise is retried.
func TestInlineChildLeapfrogIsSearch(t *testing.T) {
	const busy = 30 * time.Millisecond
	for attempt := 0; attempt < 20; attempt++ {
		mesh := topo.MustMesh(2)
		rt, err := New(Config{Mesh: mesh, Source: 0, InitialDiaspora: mesh.MaxDiaspora(0)})
		if err != nil {
			t.Fatal(err)
		}
		var rootW, aW, bW int
		var started atomic.Bool
		var waited time.Duration
		t0 := nowNS()
		rep, err := rt.Run(func(c *Ctx) {
			rootW = c.Worker()
			c.Spawn(func(a *Ctx) {
				aW = a.Worker()
				a.Spawn(func(b *Ctx) {
					bW = b.Worker()
					started.Store(true)
					for t0 := time.Now(); time.Since(t0) < busy; {
						b.Compute(1000)
					}
				})
				// Give a thief the time to take B before joining it.
				for t0 := time.Now(); !started.Load() && time.Since(t0) < time.Second; {
					runtime.Gosched()
				}
				t0 := time.Now()
				a.Sync()
				waited = time.Since(t0)
			})
			c.Sync()
		})
		if err != nil {
			t.Fatal(err)
		}
		outerWall := nowNS() - t0
		if aW != rootW || bW == rootW || waited < busy/2 {
			continue // A was stolen, or B was popped back: not this case
		}
		// The leapfrog's yields are not stamped, only its probes and
		// sleeps, so a loaded host can leave part of the wait in the
		// window; most of it is search.
		wr := rep.Workers[topo.CoreID(rootW)]
		if wr.SearchNS < int64(waited)/4 {
			t.Fatalf("root worker search %d ns, want at least a quarter of the %d ns A waited for B", wr.SearchNS, waited)
		}
		if sum := wr.UsefulNS + wr.SearchNS + wr.IdleNS; sum > outerWall+int64(time.Millisecond) {
			t.Fatalf("root worker useful(%d)+search(%d)+idle(%d) = %d exceeds wall %d: the wait counted as useful too",
				wr.UsefulNS, wr.SearchNS, wr.IdleNS, sum, outerWall)
		}
		return
	}
	t.Fatal("in 20 runs, none popped A back while a thief held B")
}

// TestSyncInlineBranches joins children that were never stolen: on a
// two-slot deque the first two children wait in the deque and run when
// their Sync pops them back, and the rest ran at Spawn because the deque
// was full. Each Sync must still pair with exactly one Spawn: on one
// worker, the six Syncs of the inlined children leave the two queued ones
// unrun.
func TestSyncInlineBranches(t *testing.T) {
	for _, mesh := range []*topo.Mesh{topo.MustMesh(1), smallMesh(t)} {
		rt, err := New(Config{Mesh: mesh, Source: 0, QueueCap: 2, InitialDiaspora: mesh.MaxDiaspora(0)})
		if err != nil {
			t.Fatal(err)
		}
		var fib func(c *Ctx, n int) int
		fib = func(c *Ctx, n int) int {
			if n < 2 {
				return n
			}
			var a, b int
			c.Spawn(func(cc *Ctx) { a = fib(cc, n-1) })
			c.Spawn(func(cc *Ctx) { b = fib(cc, n-2) })
			c.Sync()
			c.Sync()
			return a + b
		}
		var squares [8]int
		var queuedEarly bool
		var fibv int
		within(t, 10*time.Second, func() {
			if _, err := rt.Run(func(c *Ctx) {
				for i := range squares {
					i := i
					c.Spawn(func(*Ctx) { squares[i] = i * i })
				}
				for i := len(squares) - 1; i >= 2; i-- {
					c.Sync()
				}
				if mesh.NumCores() == 1 { // no thief can have run it
					queuedEarly = squares[1] != 0
				}
				c.Sync()
				c.Sync()
				fibv = fib(c, 16)
			}); err != nil {
				t.Error(err)
			}
		})
		for i, v := range squares {
			if v != i*i {
				t.Errorf("%d workers: child %d = %d, want %d", mesh.NumCores(), i, v, i*i)
			}
		}
		if queuedEarly {
			t.Errorf("1 worker: queued child 1 ran before its own Sync")
		}
		if fibv != 987 {
			t.Errorf("%d workers: fib(16) = %d, want 987", mesh.NumCores(), fibv)
		}
	}
}
