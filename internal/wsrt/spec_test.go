package wsrt

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// specMallocs runs root through SpecFunc on a fresh one-worker runtime
// and returns the heap allocations made while Run was executing it. One
// worker means no steals; an hour-long quantum means no estimator work.
func specMallocs(t *testing.T, root *task.Spec) int64 {
	t.Helper()
	rt, err := New(Config{Mesh: topo.MustMesh(1), Source: 0, Quantum: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	f := SpecFunc(root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := rt.Run(f); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.Mallocs - m0.Mallocs)
}

// TestSpecFuncAllocationSlope pins what the adapter allocates per task:
// nothing. A spawn takes a recycled task record that carries the child's
// builder, and a call takes a recycled Ctx. The runtime's own start-up
// allocations cancel between the two sizes; slack covers Ctx frames and
// task records, which the free lists allocate once per run in proportion
// to depth, not to tasks.
func TestSpecFuncAllocationSlope(t *testing.T) {
	const slack = 64
	fib, _ := workload.Get("fib")
	// Shared specs: building the tree allocates nothing at run time.
	build := func(n int64) (*task.Spec, task.Stats) {
		root := fib.Build(workload.Input{N: n, Grain: 10})
		st, err := task.Measure(root)
		if err != nil {
			t.Fatal(err)
		}
		return root, st
	}
	small, smallSt := build(12)
	large, largeSt := build(18)
	extra := specMallocs(t, large) - specMallocs(t, small)
	spawns := largeSt.Spawns - smallSt.Spawns
	if extra > slack {
		t.Errorf("fib(18) allocates %d more than fib(12) for %d more spawns (%.3f per spawn), want at most %d in all",
			extra, spawns, float64(extra)/float64(spawns), slack)
	}

	// A flat program of calls: one shared leaf, called n times.
	leaf := task.Leaf("leaf", 1)
	calls := func(n int) *task.Spec {
		s := &task.Spec{Label: "calls"}
		for i := 0; i < n; i++ {
			s.Ops = append(s.Ops, task.Call(func() *task.Spec { return leaf }))
		}
		return s
	}
	if extra := specMallocs(t, calls(20_000)) - specMallocs(t, calls(200)); extra > slack {
		t.Errorf("19 800 more calls allocate %d more objects, want none", extra)
	}
}

// TestSpecFuncBuildsEachChildOnce counts builder invocations on a real,
// stealing run: every spawned child's builder runs exactly once — on
// whichever worker runs the child — and every call's builder once.
func TestSpecFuncBuildsEachChildOnce(t *testing.T) {
	var spawnBuilds, callBuilds atomic.Int64
	var node func(depth int) *task.Spec
	node = func(depth int) *task.Spec {
		if depth == 0 {
			return task.Leaf("leaf", 20_000)
		}
		return &task.Spec{Label: "node", Ops: []task.Op{
			task.Spawn(func() *task.Spec {
				spawnBuilds.Add(1)
				return node(depth - 1)
			}),
			task.Spawn(func() *task.Spec {
				spawnBuilds.Add(1)
				return node(depth - 2 + depth%2)
			}),
			task.Call(func() *task.Spec {
				callBuilds.Add(1)
				return node(depth / 3)
			}),
			task.Sync(),
			task.Sync(),
			task.Compute(50),
		}}
	}
	root := node(14)
	st, err := task.Measure(root) // walks the tree, so it runs every builder too
	if err != nil {
		t.Fatal(err)
	}
	spawnBuilds.Store(0)
	callBuilds.Store(0)
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 2), Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(SpecFunc(root))
	if err != nil {
		t.Fatal(err)
	}
	var steals int64
	for _, w := range rep.Workers {
		steals += w.Steals
	}
	if got := spawnBuilds.Load(); got != st.Spawns {
		t.Errorf("spawn builders ran %d times, the tree has %d spawns", got, st.Spawns)
	}
	if got, want := callBuilds.Load(), st.Tasks-st.Spawns-1; got != want {
		t.Errorf("call builders ran %d times, the tree has %d calls", got, want)
	}
	t.Logf("%d spawns, %d steals", st.Spawns, steals)
}
