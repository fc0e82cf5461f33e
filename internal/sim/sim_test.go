package sim

import (
	"testing"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// simMesh returns the paper's 8x4 simulator platform.
func simMesh() (*topo.Mesh, topo.CoreID) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	return m, topo.CoreID(20)
}

// fibRoot builds a small fib tree for fast tests.
func fibRoot(n int) *task.Spec {
	var rec func(k int) *task.Spec
	rec = func(k int) *task.Spec {
		if k < 2 {
			return task.Leaf("fib", 100)
		}
		return &task.Spec{
			Label: "fib",
			Ops: []task.Op{
				task.Spawn(func() *task.Spec { return rec(k - 1) }),
				task.Call(func() *task.Spec { return rec(k - 2) }),
				task.Sync(),
				task.Compute(10),
			},
		}
	}
	return rec(n)
}

func mustRun(t testing.TB, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	m, src := simMesh()
	if _, err := Run(Config{Source: src, Root: fibRoot(3)}); err == nil {
		t.Error("nil mesh must fail")
	}
	if _, err := Run(Config{Mesh: m, Source: src}); err == nil {
		t.Error("nil root must fail")
	}
	bad := &task.Spec{Ops: []task.Op{task.Sync()}}
	if _, err := Run(Config{Mesh: m, Source: src, Root: bad}); err == nil {
		t.Error("invalid root must fail")
	}
	if _, err := Run(Config{Mesh: m, Source: topo.CoreID(0), Root: fibRoot(3)}); err == nil {
		t.Error("reserved source must fail")
	}
}

func TestSingleWorkerSerialExecution(t *testing.T) {
	// A 1-core mesh runs everything serially: exec time equals work plus
	// the deterministic op overheads and no steals happen.
	m := topo.MustMesh(1)
	root := fibRoot(6)
	st, err := task.Measure(fibRoot(6))
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Config{Mesh: m, Source: 0, Root: root})
	ws := res.Workers[0]
	if ws.Steals != 0 || ws.FailedProbes != 0 {
		t.Fatalf("serial run stole: %+v", ws)
	}
	if ws.Cycles[metrics.Compute] != st.Work {
		t.Fatalf("compute cycles = %d, want %d", ws.Cycles[metrics.Compute], st.Work)
	}
	if ws.TasksRun != st.Tasks {
		t.Fatalf("tasks run = %d, want %d", ws.TasksRun, st.Tasks)
	}
	if res.ExecCycles < st.Work {
		t.Fatalf("exec %d below pure work %d", res.ExecCycles, st.Work)
	}
	// All overhead categories are deterministic: exec = total accounted.
	if res.ExecCycles != ws.Total() {
		t.Fatalf("exec %d != accounted %d", res.ExecCycles, ws.Total())
	}
}

func TestWorkConservation(t *testing.T) {
	// Across any configuration, the sum of compute cycles equals the
	// tree's total work and the tasks executed equal the tree's tasks.
	m, src := simMesh()
	root := fibRoot(12)
	st, _ := task.Measure(fibRoot(12))
	for _, policy := range []string{"dvs", "random", "roundrobin"} {
		res := mustRun(t, Config{
			Mesh: m, Source: src, Root: root, InitialDiaspora: 4, Policy: policy, Seed: 42,
		})
		var compute, tasks int64
		for _, ws := range res.Workers {
			compute += ws.Cycles[metrics.Compute]
			tasks += ws.TasksRun
		}
		if compute != st.Work {
			t.Fatalf("%s: compute = %d, want %d", policy, compute, st.Work)
		}
		if tasks != st.Tasks {
			t.Fatalf("%s: tasks = %d, want %d", policy, tasks, st.Tasks)
		}
		// Re-entrancy: the root spec is rebuilt lazily each run, so reuse
		// across runs must not corrupt anything.
		root = fibRoot(12)
	}
}

func TestDeterminism(t *testing.T) {
	m, src := simMesh()
	for _, policy := range []string{"dvs", "random"} {
		cfg := func() Config {
			return Config{
				Mesh: m, Source: src, Root: fibRoot(13),
				InitialDiaspora: 3, Policy: policy, Seed: 7,
			}
		}
		a := mustRun(t, cfg())
		b := mustRun(t, cfg())
		if a.ExecCycles != b.ExecCycles || a.Events != b.Events {
			t.Fatalf("%s: nondeterministic: %d/%d vs %d/%d cycles/events",
				policy, a.ExecCycles, a.Events, b.ExecCycles, b.Events)
		}
		for id, ws := range a.Workers {
			if *ws != *b.Workers[id] {
				t.Fatalf("%s: worker %d stats diverge", policy, id)
			}
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	// fib is embarrassingly parallel: 27 workers must beat 5 workers
	// substantially on the ideal machine.
	m, src := simMesh()
	r5 := mustRun(t, Config{Mesh: m, Source: src, Root: fibRoot(16), InitialDiaspora: 1})
	r27 := mustRun(t, Config{Mesh: m, Source: src, Root: fibRoot(16), InitialDiaspora: 4})
	speedup := float64(r5.ExecCycles) / float64(r27.ExecCycles)
	if speedup < 2.5 {
		t.Fatalf("27-worker speedup over 5 workers = %.2f, want > 2.5", speedup)
	}
}

func TestStealsHappenAndAreAccounted(t *testing.T) {
	m, src := simMesh()
	res := mustRun(t, Config{Mesh: m, Source: src, Root: fibRoot(14), InitialDiaspora: 2})
	var steals, suffered int64
	for _, ws := range res.Workers {
		steals += ws.Steals
		suffered += ws.StolenFrom
	}
	if steals == 0 {
		t.Fatal("no steals in a 12-worker parallel run")
	}
	if steals != suffered {
		t.Fatalf("steals %d != stolen-from %d", steals, suffered)
	}
}

func TestQueueOverflowInlinesSpawns(t *testing.T) {
	// With a tiny queue, wide spawn bursts overflow and execute inline;
	// the run must still complete with full work conservation.
	m, src := simMesh()
	st, _ := task.Measure(wideRoot())
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: wideRoot(), InitialDiaspora: 1,
		QueueCap: 4, StealableSlots: 4,
	})
	var compute int64
	for _, ws := range res.Workers {
		compute += ws.Cycles[metrics.Compute]
	}
	if compute != st.Work {
		t.Fatalf("compute = %d, want %d", compute, st.Work)
	}
}

func TestLeapfrogWhileWaiting(t *testing.T) {
	// Construct a tree where the source blocks on a stolen child while
	// more work exists: the source must keep executing (leapfrog), not
	// idle forever. If blocking deadlocked, the run would hit MaxCycles.
	m, src := simMesh()
	deep := func() *task.Spec {
		// A long child that will be stolen.
		return task.Leaf("long", 50000)
	}
	leaves := make([]task.Builder, 16)
	for i := range leaves {
		leaves[i] = func() *task.Spec { return task.Leaf("leaf", 5000) }
	}
	root := &task.Spec{
		Label: "root",
		Ops: append([]task.Op{
			task.Spawn(deep),
			task.Compute(10), // tiny continuation; sync immediately
			task.Sync(),      // blocks: child stolen by another worker
		}, task.SpawnJoin("rest", 0, leaves, 0, 0).Ops...),
	}
	res := mustRun(t, Config{Mesh: m, Source: src, Root: root, InitialDiaspora: 1, MaxCycles: 10e6})
	if res.ExecCycles <= 0 {
		t.Fatal("run did not complete")
	}
}

func TestPalirriaAdaptiveRun(t *testing.T) {
	m, src := simMesh()
	d, _ := workload.Get("stress")
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: d.Root(workload.Simulator),
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 20000,
	})
	if got := res.Timeline.Max(); got < 12 {
		t.Fatalf("palirria never grew beyond %d workers on a highly parallel workload", got)
	}
	if got := res.Timeline.Max(); got > 27 {
		t.Fatalf("allotment exceeded the 27-worker cap: %d", got)
	}
	if len(res.Decisions.Decisions()) == 0 {
		t.Fatal("no quantum decisions recorded")
	}
	// Sizes must always be in the platform's zone series.
	series := map[int]bool{5: true, 12: true, 20: true, 27: true}
	for _, p := range res.Timeline.Points() {
		if !series[p.Workers] {
			t.Fatalf("allotment size %d not in the zone series", p.Workers)
		}
	}
}

func TestAStealAdaptiveRun(t *testing.T) {
	m, src := simMesh()
	d, _ := workload.Get("stress")
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: d.Root(workload.Simulator),
		InitialDiaspora: 1, MaxDiaspora: 4, Policy: "random", Seed: 3,
		Estimator: asteal.New(), Quantum: 20000,
	})
	if got := res.Timeline.Max(); got < 12 {
		t.Fatalf("asteal never grew beyond %d workers", got)
	}
}

func TestAdaptiveShrinksOnSerialTail(t *testing.T) {
	// A workload with a big parallel head and a long serial tail: Palirria
	// must shrink the allotment during the tail. The head is a nested
	// fork/join tree — flat fan-outs never populate thieves' queues, so
	// queue-based estimation (correctly) sees no distributable parallelism
	// in them.
	m, src := simMesh()
	var fan func(n int) *task.Spec
	fan = func(n int) *task.Spec {
		if n <= 1 {
			return task.Leaf("leaf", 4000)
		}
		return &task.Spec{Ops: []task.Op{
			task.Spawn(func() *task.Spec { return fan(n / 2) }),
			task.Spawn(func() *task.Spec { return fan(n - n/2) }),
			task.Sync(), task.Sync(),
		}}
	}
	root := &task.Spec{
		Label: "headtail",
		Ops: []task.Op{
			task.Call(func() *task.Spec { return fan(256) }),
			task.Compute(600000), // serial tail
		},
	}
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: root,
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 20000,
	})
	if res.FinalAllotment.Size() != 5 {
		t.Fatalf("final allotment = %d, want shrunk to 5 during the serial tail",
			res.FinalAllotment.Size())
	}
	// The timeline must show growth followed by shrinkage.
	if res.Timeline.Max() < 12 {
		t.Fatal("allotment never grew during the parallel head")
	}
}

func TestLoopyDoesNotGrowUnderPalirria(t *testing.T) {
	// The §4.1.1 adversary: LOOPY looks busy but queues hold at most one
	// task. Beyond the minimal allotment interior X workers have
	// µ(O) >= 1, so Palirria must keep the allotment small.
	m, src := simMesh()
	d, _ := workload.Get("loopy")
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: d.Root(workload.Simulator),
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 20000,
	})
	if got := res.Timeline.Max(); got > 12 {
		t.Fatalf("palirria grew to %d workers on LOOPY, want <= 12", got)
	}
}

func TestDrainingWorkerFinishesQueue(t *testing.T) {
	// Force shrink with non-empty queues: the run completes and work is
	// conserved; draining workers retire.
	m, src := simMesh()
	d, _ := workload.Get("bursty")
	root := d.Root(workload.Simulator)
	st, _ := task.Measure(d.Root(workload.Simulator))
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: root,
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 15000,
	})
	var compute int64
	for _, ws := range res.Workers {
		compute += ws.Cycles[metrics.Compute]
	}
	if compute != st.Work {
		t.Fatalf("compute = %d, want %d (work lost across drains)", compute, st.Work)
	}
	retired := 0
	for _, ws := range res.Workers {
		if ws.RetiredAt > 0 {
			retired++
		}
	}
	if retired == 0 {
		t.Fatal("bursty under palirria never retired a worker")
	}
}

func TestNUMAMigrationCharged(t *testing.T) {
	// On the NUMA model, stealing a big-footprint task across nodes incurs
	// migration cycles.
	m := topo.MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	src := topo.CoreID(28)
	d, _ := workload.Get("fft")
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: d.Root(workload.Simulator),
		InitialDiaspora: 4, Machine: NewNUMA(m),
	})
	var mig int64
	for _, ws := range res.Workers {
		mig += ws.Cycles[metrics.Migration]
	}
	if mig == 0 {
		t.Fatal("no migration cycles charged for FFT on the NUMA model")
	}
}

func TestIdealNoMigration(t *testing.T) {
	m, src := simMesh()
	d, _ := workload.Get("fft")
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: d.Root(workload.Simulator), InitialDiaspora: 4,
	})
	for id, ws := range res.Workers {
		if ws.Cycles[metrics.Migration] != 0 {
			t.Fatalf("worker %d charged migration on the ideal machine", id)
		}
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	m, src := simMesh()
	_, err := Run(Config{
		Mesh: m, Source: src, Root: task.Leaf("big", 1000000), MaxCycles: 100,
	})
	if err == nil {
		t.Fatal("expected MaxCycles error")
	}
}

func TestReportAggregation(t *testing.T) {
	m, src := simMesh()
	res := mustRun(t, Config{Mesh: m, Source: src, Root: fibRoot(12), InitialDiaspora: 2})
	rep := res.Report()
	if rep.ExecCycles != res.ExecCycles {
		t.Fatal("report exec mismatch")
	}
	if rep.MaxWorkers != 12 {
		t.Fatalf("MaxWorkers = %d, want 12", rep.MaxWorkers)
	}
	if rep.WorkerCycleArea != int64(12)*res.ExecCycles {
		t.Fatalf("area = %d, want %d", rep.WorkerCycleArea, int64(12)*res.ExecCycles)
	}
	if rep.TotalTasks == 0 || rep.TotalSteals == 0 {
		t.Fatal("report totals empty")
	}
	if w := rep.WastefulnessPercent(); w <= 0 || w >= 100 {
		t.Fatalf("wastefulness = %.1f%%, want in (0, 100)", w)
	}
}

func TestAllWorkloadsCompleteOnSim(t *testing.T) {
	// Smoke test: every registered workload completes under every
	// scheduler configuration on the simulator platform.
	if testing.Short() {
		t.Skip("long smoke test")
	}
	m, src := simMesh()
	for _, name := range workload.Names() {
		d, _ := workload.Get(name)
		for _, mode := range []string{"fixed", "palirria", "asteal"} {
			cfg := Config{
				Mesh: m, Source: src, Root: d.Root(workload.Simulator),
				InitialDiaspora: 1, MaxDiaspora: 4, Quantum: 20000, Seed: 5,
			}
			switch mode {
			case "fixed":
				cfg.InitialDiaspora = 4
			case "palirria":
				cfg.Estimator = core.NewPalirria()
			case "asteal":
				cfg.Estimator = asteal.New()
				cfg.Policy = "random"
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if res.ExecCycles <= 0 {
				t.Fatalf("%s/%s: empty run", name, mode)
			}
		}
	}
}

func TestAdaptiveOn1DMesh(t *testing.T) {
	// The paper's generic model covers one-dimensional topologies: the
	// whole pipeline (DVS, DMC, zone grants) must work on a row of cores.
	m := topo.MustMesh(16)
	res := mustRun(t, Config{
		Mesh: m, Source: 8, Root: fibRoot(14),
		Estimator: core.NewPalirria(), Quantum: 20000,
	})
	if res.ExecCycles <= 0 {
		t.Fatal("empty run")
	}
	if res.Timeline.Max() < 5 {
		t.Fatalf("1D palirria never grew: max %d", res.Timeline.Max())
	}
}

func TestAdaptiveOn3DMesh(t *testing.T) {
	m := topo.MustMesh(4, 4, 4)
	src := m.ID(topo.Coord{X: 2, Y: 2, Z: 2})
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: fibRoot(15),
		Estimator: core.NewPalirria(), Quantum: 20000,
	})
	if res.Timeline.Max() < 7 {
		t.Fatalf("3D palirria never grew: max %d", res.Timeline.Max())
	}
	// Work conservation holds across dimensions.
	st, _ := task.Measure(fibRoot(15))
	var compute int64
	for _, ws := range res.Workers {
		compute += ws.Cycles[metrics.Compute]
	}
	if compute != st.Work {
		t.Fatalf("compute = %d, want %d", compute, st.Work)
	}
}

// TestPropertyRandomTreesConserveWork runs randomly generated fork/join
// trees under every scheduler configuration and checks exact work
// conservation and task counts — the simulator's core correctness
// property over arbitrary program shapes.
func TestPropertyRandomTreesConserveWork(t *testing.T) {
	m, src := simMesh()
	for seed := uint64(0); seed < 40; seed++ {
		ref, err := task.Measure(task.RandomTree(task.RandomTreeConfig{Seed: seed}))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"fixed-dvs", "fixed-random", "palirria", "tiny-queue"} {
			cfg := Config{
				Mesh: m, Source: src,
				Root:            task.RandomTree(task.RandomTreeConfig{Seed: seed}),
				InitialDiaspora: 3, Seed: seed,
			}
			switch mode {
			case "fixed-random":
				cfg.Policy = "random"
			case "palirria":
				cfg.InitialDiaspora = 1
				cfg.Estimator = core.NewPalirria()
				cfg.Quantum = 10000
			case "tiny-queue":
				cfg.QueueCap = 2
				cfg.StealableSlots = 2
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode, err)
			}
			var compute, tasks int64
			for _, ws := range res.Workers {
				compute += ws.Cycles[metrics.Compute]
				tasks += ws.TasksRun
			}
			if compute != ref.Work {
				t.Fatalf("seed %d %s: compute %d != %d", seed, mode, compute, ref.Work)
			}
			if tasks != ref.Tasks {
				t.Fatalf("seed %d %s: tasks %d != %d", seed, mode, tasks, ref.Tasks)
			}
			if res.ExecCycles < ref.Span {
				t.Fatalf("seed %d %s: exec %d below span %d", seed, mode, res.ExecCycles, ref.Span)
			}
		}
	}
}

func TestEventTrace(t *testing.T) {
	m, src := simMesh()
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: fibRoot(10), InitialDiaspora: 2, Observe: true,
	})
	if res.Obs == nil || len(res.Obs.Events) == 0 {
		t.Fatal("no trace events")
	}
	// Chronological order and at least one steal recorded.
	sawSteal := false
	prev := int64(-1)
	for _, ev := range res.Obs.Events {
		if ev.TS < prev {
			t.Fatalf("trace out of order at %v", ev)
		}
		prev = ev.TS
		if ev.Kind == obs.KindSteal {
			sawSteal = true
			if ev.Peer == obs.NoWorker {
				t.Fatal("steal event without victim")
			}
		}
		if ev.String() == "" {
			t.Fatal("empty render")
		}
	}
	if !sawSteal {
		t.Fatal("no steal events in a parallel run")
	}
	// Disabled by default.
	res2 := mustRun(t, Config{Mesh: m, Source: src, Root: fibRoot(8), InitialDiaspora: 1})
	if res2.Obs != nil {
		t.Fatal("trace recorded while disabled")
	}
}
