package wsrt

import "testing"

// TestStealProbeZeroAllocs guards the allocation-free steal path: one
// probe sweep plus a successful steal and task execution must not touch
// the heap at steady state. VictimsInto fills the worker-owned victimBuf
// and the Ctx free list recycles frames, so after AllocsPerRun's warm-up
// call every iteration reuses the same storage.
func TestStealProbeZeroAllocs(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The runtime is built but never launched: the test goroutine plays
	// both the victim's owner (PushBottom) and the thief (stealProbe).
	b := rt.loadPolicy()
	if b == nil {
		t.Fatal("no policy installed")
	}
	var thief, victim *worker
	for _, w := range rt.workerList {
		if vs := b.policy.Victims(w.id); len(vs) > 0 {
			thief, victim = w, rt.byID[vs[0]]
			break
		}
	}
	if thief == nil || victim == nil {
		t.Fatal("no (thief, victim) pair in the victim graph")
	}
	task := &rtTask{fn: func(*Ctx) {}}
	allocs := testing.AllocsPerRun(100, func() {
		task.done.Store(false)
		if !victim.deque.PushBottom(task) {
			t.Fatal("victim deque full")
		}
		st := thief.stealProbe()
		if st == nil {
			t.Fatal("steal probe found nothing")
		}
		thief.runTask(st)
	})
	if allocs != 0 {
		t.Fatalf("stealProbe path allocates %.1f objects/op, want 0", allocs)
	}
}
