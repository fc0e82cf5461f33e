package wsrt

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// counted wraps a spec tree so that every builder invocation is counted:
// spawn builders in spawns, call builders in calls. It wraps lazily, one
// level per build, like the generators it wraps.
func counted(s *task.Spec, spawns, calls *atomic.Int64) *task.Spec {
	c := &task.Spec{Label: s.Label, Footprint: s.Footprint, MemBound: s.MemBound, Ops: make([]task.Op, len(s.Ops))}
	for i, op := range s.Ops {
		if gen := op.Gen; gen != nil {
			n := spawns
			if op.Kind == task.OpCall {
				n = calls
			}
			op.Gen = func() *task.Spec {
				n.Add(1)
				return counted(gen(), spawns, calls)
			}
		}
		c.Ops[i] = op
	}
	return c
}

// TestRecycledRecordsUnderSteals runs small-grain fib and stress trees on
// a 4x2 mesh many times, so records are stolen, joined by leapfrogging
// and recycled while thieves still hold their neighbours. Every run must
// count each spawned child once (tasks == spawns + 1) and run each
// builder once; a record recycled before its thief is done would run a
// child twice or lose one, or leave a join waiting for ever (and, in race
// builds, taskGet panics on it). A two-slot queue variant drives the
// full-deque inline path as well.
func TestRecycledRecordsUnderSteals(t *testing.T) {
	fib, _ := workload.Get("fib")
	stress, _ := workload.Get("stress")
	trees := []struct {
		name string
		root *task.Spec
	}{
		{"fib", fib.Build(workload.Input{N: 17, Grain: 100, Extra: []int64{20}})},
		{"stress", stress.Build(workload.Input{N: 4000, Grain: 50, Extra: []int64{5, 50}})},
	}
	runs := 20
	if testing.Short() {
		runs = 3
	}
	for _, tr := range trees {
		st, err := task.Measure(tr.root)
		if err != nil {
			t.Fatal(err)
		}
		calls := st.Tasks - st.Spawns - 1
		for _, qcap := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/queue-%d", tr.name, qcap), func(t *testing.T) {
				var steals int64
				for i := 0; i < runs; i++ {
					mesh := topo.MustMesh(4, 2)
					rt, err := New(Config{
						Mesh: mesh, Source: 0,
						InitialDiaspora: mesh.MaxDiaspora(0),
						Estimator:       core.NewPalirria(),
						Quantum:         200 * time.Microsecond,
						QueueCap:        qcap,
						Seed:            uint64(i + 1),
					})
					if err != nil {
						t.Fatal(err)
					}
					var spawnBuilds, callBuilds atomic.Int64
					var rep *Report
					within(t, 20*time.Second, func() {
						rep, err = rt.Run(SpecFunc(counted(tr.root, &spawnBuilds, &callBuilds)))
					})
					if err != nil {
						t.Fatal(err)
					}
					var tasks int64
					for _, w := range rep.Workers {
						tasks += w.Tasks
						steals += w.Steals
					}
					if tasks != st.Spawns+1 {
						t.Fatalf("run %d: tasks = %d, want spawns+1 = %d", i, tasks, st.Spawns+1)
					}
					if got := spawnBuilds.Load(); got != st.Spawns {
						t.Fatalf("run %d: spawn builders ran %d times, the tree has %d spawns", i, got, st.Spawns)
					}
					if got := callBuilds.Load(); got != calls {
						t.Fatalf("run %d: call builders ran %d times, the tree has %d calls", i, got, calls)
					}
				}
				t.Logf("%d runs, %d spawns each, %d steals in all", runs, st.Spawns, steals)
			})
		}
	}
}

// TestRecycledRecordsStayBounded checks that a worker's free list holds
// no more records than the worker ever had outstanding: on one worker the
// outstanding spawns of a fib tree never exceed its depth, and a record
// put back twice (or never) would show here as a longer (or empty) list.
func TestRecycledRecordsStayBounded(t *testing.T) {
	rt, err := New(Config{Mesh: topo.MustMesh(1), Source: 0, Quantum: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fib, _ := workload.Get("fib")
	const n = 20
	if _, err := rt.Run(SpecFunc(fib.Build(workload.Input{N: n, Grain: 1}))); err != nil {
		t.Fatal(err)
	}
	w := rt.workerList[0]
	if got := len(w.taskFree); got == 0 || got > n {
		t.Fatalf("free list holds %d records after fib(%d), want 1..%d", got, n, n)
	}
}

// TestTaskGetRefusesLiveRecord: in race builds, a record whose child is
// not done must never be handed out again.
func TestTaskGetRefusesLiveRecord(t *testing.T) {
	if !raceEnabled {
		t.Skip("the tenant check is compiled into race builds only")
	}
	rt, err := New(Config{Mesh: topo.MustMesh(1), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	w := rt.workerList[0]
	w.taskPut(&rtTask{fn: func(*Ctx) {}})
	defer func() {
		if recover() == nil {
			t.Fatal("taskGet handed out a record whose child is not done")
		}
	}()
	w.taskGet(func(*Ctx) {}, nil)
}
