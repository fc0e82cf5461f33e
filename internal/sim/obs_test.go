package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/obs"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// stressRoot is a workload long enough to cross several quanta.
func stressRoot() *task.Spec {
	d, _ := workload.Get("stress")
	return d.Root(workload.Simulator)
}

// TestObserveProducesTraceData checks the Observe path end to end: the run
// returns a drained obs.TraceData with quantum markers and probe events,
// and it exports to valid Chrome trace JSON.
func TestObserveProducesTraceData(t *testing.T) {
	m, src := simMesh()
	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: stressRoot(),
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 20000,
		Observe: true,
	})
	if res.Obs == nil {
		t.Fatal("Observe run returned nil Obs")
	}
	counts := res.Obs.Counts()
	for _, k := range []obs.Kind{obs.KindSpawn, obs.KindSteal, obs.KindProbeFail, obs.KindQuantum} {
		if counts[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	if res.Obs.TicksPerMicro != 1 {
		t.Fatalf("TicksPerMicro = %v, want 1 (cycles)", res.Obs.TicksPerMicro)
	}
	var buf bytes.Buffer
	if err := res.Obs.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export is not valid JSON")
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"steal", "quantum", "allotment", "desire"} {
		if !names[want] {
			t.Errorf("chrome export missing %q events", want)
		}
	}
}

// TestIntrospectSnapshots checks both estimators' per-quantum records: the
// Palirria snapshots carry DVS classes and thresholds, the ASTEAL ones the
// utilization inputs.
func TestIntrospectSnapshots(t *testing.T) {
	m, src := simMesh()

	res := mustRun(t, Config{
		Mesh: m, Source: src, Root: stressRoot(),
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: core.NewPalirria(), Quantum: 20000,
		Observe: true,
	})
	if len(res.Obs.Snapshots) == 0 {
		t.Fatal("no estimator snapshots from an adaptive run")
	}
	sawClass := false
	for _, es := range res.Obs.Snapshots {
		if es.Estimator != "palirria" {
			t.Fatalf("estimator = %q", es.Estimator)
		}
		switch es.Decision {
		case "increase", "keep", "decrease":
		default:
			t.Fatalf("bad decision %q", es.Decision)
		}
		if es.Allotment <= 0 || es.Granted <= 0 {
			t.Fatalf("bad sizes in %+v", es)
		}
		if len(es.Workers) != es.Allotment {
			t.Fatalf("snapshot has %d workers for allotment %d", len(es.Workers), es.Allotment)
		}
		for _, iw := range es.Workers {
			if iw.Class != "" {
				sawClass = true
			}
		}
	}
	if !sawClass {
		t.Fatal("no DVS classes recorded in Palirria snapshots")
	}

	res = mustRun(t, Config{
		Mesh: m, Source: src, Root: stressRoot(),
		InitialDiaspora: 1, MaxDiaspora: 4,
		Estimator: asteal.New(), Quantum: 20000,
		Observe: true,
	})
	if len(res.Obs.Snapshots) == 0 {
		t.Fatal("no ASTEAL snapshots")
	}
	for _, es := range res.Obs.Snapshots {
		if es.Estimator != "asteal" {
			t.Fatalf("estimator = %q", es.Estimator)
		}
		for _, key := range []string{"wasted_cycles", "total_cycles", "inefficient", "satisfied", "desire"} {
			if _, ok := es.Inputs[key]; !ok {
				t.Fatalf("ASTEAL snapshot missing input %q: %+v", key, es.Inputs)
			}
		}
	}
}

// benchConfig is the shared workload for the tracing-overhead benchmarks:
// an adaptive run long enough to exercise every instrumented hot path.
func benchConfig() (Config, func() *task.Spec) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	return Config{
		Mesh: m, Source: 20, InitialDiaspora: 2,
		Estimator: core.NewPalirria(), Quantum: 20000,
	}, func() *task.Spec { return fibRoot(16) }
}

// BenchmarkRunTraceDisabled vs. BenchmarkRunTraceEnabled quantifies the
// tracer's cost on the simulator: disabled tracing is a nil check per
// event site, so the two disabled/enabled numbers bound the instrumentation
// overhead end to end.
func BenchmarkRunTraceDisabled(b *testing.B) {
	cfg, root := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Root = root()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTraceEnabled(b *testing.B) {
	cfg, root := benchConfig()
	cfg.Observe = true
	for i := 0; i < b.N; i++ {
		cfg.Root = root()
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMultiObserve checks that multiprogrammed runs label snapshots per
// job.
func TestMultiObserve(t *testing.T) {
	m, _ := simMesh()
	res, err := RunMulti(MultiConfig{
		Mesh: m,
		Jobs: []Job{
			{Name: "left", Source: 20, Root: stressRoot(), Estimator: core.NewPalirria()},
			{Name: "right", Source: 27, Root: stressRoot(), Estimator: core.NewPalirria()},
		},
		Quantum: 20000, Observe: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil || len(res.Obs.Events) == 0 {
		t.Fatal("no observability data from multi run")
	}
	jobs := map[string]bool{}
	for _, es := range res.Obs.Snapshots {
		jobs[es.Job] = true
	}
	if !jobs["left"] || !jobs["right"] {
		t.Fatalf("snapshots missing a job: %v", jobs)
	}
}
