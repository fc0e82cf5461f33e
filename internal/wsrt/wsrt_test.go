package wsrt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// smallMesh returns an 8-core 4x2 mesh for tests.
func smallMesh(t testing.TB) *topo.Mesh {
	t.Helper()
	return topo.MustMesh(4, 2)
}

func TestRunFibCorrectResult(t *testing.T) {
	// A real computation: parallel fib with results through closures.
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	var result int64
	var fib func(c *Ctx, n int, out *int64)
	fib = func(c *Ctx, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var a, b int64
		c.Spawn(func(cc *Ctx) { fib(cc, n-1, &a) })
		fib(c, n-2, &b)
		c.Sync()
		*out = a + b
	}
	rep, err := rt.Run(func(c *Ctx) { fib(c, 20, &result) })
	if err != nil {
		t.Fatal(err)
	}
	if result != 6765 {
		t.Fatalf("fib(20) = %d, want 6765", result)
	}
	if rep.WallNS <= 0 {
		t.Fatal("empty wall time")
	}
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	if tasks == 0 {
		t.Fatal("no tasks recorded")
	}
}

func TestRunIsSingleUse(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(func(c *Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(func(c *Ctx) {}); !errors.Is(err, ErrAlreadyUsed) {
		t.Fatalf("second Run = %v, want ErrAlreadyUsed", err)
	}
	// The same single-use gate guards persistent mode.
	if err := rt.Start(); !errors.Is(err, ErrAlreadyUsed) {
		t.Fatalf("Start after Run = %v, want ErrAlreadyUsed", err)
	}
}

func TestSpawnSyncEveryTaskRunsExactlyOnce(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	var counts [n]atomic.Int32
	var fan func(c *Ctx, lo, hi int)
	fan = func(c *Ctx, lo, hi int) {
		if hi-lo == 1 {
			counts[lo].Add(1)
			return
		}
		mid := (lo + hi) / 2
		c.Spawn(func(cc *Ctx) { fan(cc, lo, mid) })
		fan(c, mid, hi)
		c.Sync()
	}
	if _, err := rt.Run(func(c *Ctx) { fan(c, 0, n) }); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("leaf %d ran %d times", i, got)
		}
	}
}

func TestSyncAllAndEmptySync(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	_, err = rt.Run(func(c *Ctx) {
		c.Sync() // no outstanding spawns: must be a no-op
		for i := 0; i < 10; i++ {
			i := i
			c.Spawn(func(cc *Ctx) { sum.Add(int64(i)) })
		}
		c.SyncAll()
		if got := sum.Load(); got != 45 {
			t.Errorf("sum after SyncAll = %d, want 45", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueOverflowRunsInline(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	_, err = rt.Run(func(c *Ctx) {
		for i := 0; i < 64; i++ {
			c.Spawn(func(cc *Ctx) { ran.Add(1) })
		}
		c.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran = %d, want 64", ran.Load())
	}
}

func TestSpecAdapterMatchesTree(t *testing.T) {
	// Run a workload spec tree on the real runtime and check task counts.
	d, _ := workload.Get("strassen")
	root := d.Root(workload.Simulator)
	st, err := task.Measure(d.Root(workload.Simulator))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(SpecFunc(root))
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	// Spawned tasks run through runTask; called and inlined ones execute
	// within their parent, so the runtime's task count equals spawns + 1
	// (the root).
	if tasks != st.Spawns+1 {
		t.Fatalf("tasks = %d, want spawns+1 = %d", tasks, st.Spawns+1)
	}
}

// TestSharedFibSpecsOnRuntime runs workload's fib, whose tree shares one
// spec per fib(k) across every instance, concurrently on the real runtime
// under Palirria — and runs the same built tree a second time, since a
// shared spec must carry no execution state. Under -race this is the check
// that concurrent walks of shared specs only read them.
func TestSharedFibSpecsOnRuntime(t *testing.T) {
	d, _ := workload.Get("fib")
	root := d.Build(workload.Input{N: 18, Grain: 220, Extra: []int64{40}})
	st, err := task.Measure(root)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run <= 2; run++ {
		rt, err := New(Config{
			Mesh: topo.MustMesh(4, 2), Source: 0,
			Estimator: core.NewPalirria(),
			Quantum:   500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(SpecFunc(root))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		var tasks int64
		for _, w := range rep.Workers {
			tasks += w.Tasks
		}
		if tasks != st.Spawns+1 {
			t.Fatalf("run %d: tasks = %d, want spawns+1 = %d", run, tasks, st.Spawns+1)
		}
	}
}

func TestAdaptivePalirriaGrowsAndShrinks(t *testing.T) {
	mesh := topo.MustMesh(4, 2)
	rt, err := New(Config{
		Mesh: mesh, Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A bursty root long enough to span many quanta on a fast host.
	var fan func(c *Ctx, n int)
	fan = func(c *Ctx, n int) {
		if n <= 1 {
			c.Compute(200_000)
			return
		}
		c.Spawn(func(cc *Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	rep, err := rt.Run(func(c *Ctx) {
		for burst := 0; burst < 10; burst++ {
			c.Compute(2_000_000) // serial gap
			fan(c, 64)           // parallel burst
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxWorkers < 2 {
		t.Fatalf("palirria never grew: max workers %d", rep.MaxWorkers)
	}
	if len(rep.Decisions.Decisions()) == 0 {
		t.Fatal("no decisions recorded")
	}
}

func TestAdaptiveASteal(t *testing.T) {
	mesh := topo.MustMesh(4, 2)
	rt, err := New(Config{
		Mesh: mesh, Source: 0, Policy: "random",
		Estimator: asteal.New(),
		Quantum:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := workload.Get("stress")
	rep, err := rt.Run(SpecFunc(d.Root(workload.Simulator)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallNS <= 0 {
		t.Fatal("empty run")
	}
}

func TestDefaultMeshFromGOMAXPROCS(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ok atomic.Bool
	if _, err := rt.Run(func(c *Ctx) { ok.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ok.Load() {
		t.Fatal("root did not run")
	}
}

func TestPinnedWorkers(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, Pin: true, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	_, err = rt.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Spawn(func(cc *Ctx) { sum.Add(1); cc.Compute(1000) })
		}
		c.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 100 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestComputeBurnsWork(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = rt.Run(func(c *Ctx) { c.Compute(2_000_000) })
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) <= 0 {
		t.Fatal("compute took no time")
	}
}

func TestNestedParallelSections(t *testing.T) {
	// Repeated spawn/sync sections (Sort-like phases) across one run.
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	var total atomic.Int64
	_, err = rt.Run(func(c *Ctx) {
		for phase := 0; phase < 20; phase++ {
			for i := 0; i < 16; i++ {
				c.Spawn(func(cc *Ctx) {
					cc.Spawn(func(ccc *Ctx) { total.Add(1) })
					total.Add(1)
					cc.Sync()
				})
			}
			c.SyncAll()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 20*16*2 {
		t.Fatalf("total = %d, want %d", total.Load(), 20*16*2)
	}
}

// TestPropertyRandomTreesOnRealRuntime runs randomly generated trees on
// the goroutine runtime: every spawned task must execute exactly once
// (checked via the spawns+1 accounting identity).
func TestPropertyRandomTreesOnRealRuntime(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		ref, err := task.Measure(task.RandomTree(task.RandomTreeConfig{Seed: seed, MaxWork: 50}))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run(SpecFunc(task.RandomTree(task.RandomTreeConfig{Seed: seed, MaxWork: 50})))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tasks int64
		for _, w := range rep.Workers {
			tasks += w.Tasks
		}
		if tasks != ref.Spawns+1 {
			t.Fatalf("seed %d: tasks %d != spawns+1 %d", seed, tasks, ref.Spawns+1)
		}
	}
}
