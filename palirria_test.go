package palirria

import (
	"encoding/json"
	"testing"
)

func jsonUnmarshal(data []byte, v interface{}) error { return json.Unmarshal(data, v) }

func TestRunSimDefaults(t *testing.T) {
	rep, err := RunSim(SimConfig{Workload: "strassen"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecCycles <= 0 || rep.Tasks == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if rep.MaxWorkers < 5 || rep.MaxWorkers > 27 {
		t.Fatalf("MaxWorkers = %d outside [5, 27]", rep.MaxWorkers)
	}
}

func TestRunSimAllSchedulers(t *testing.T) {
	for _, sched := range []string{"wool", "asteal", "palirria"} {
		rep, err := RunSim(SimConfig{Workload: "strassen", Scheduler: sched, FixedWorkers: 12})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if rep.ExecCycles <= 0 {
			t.Fatalf("%s: empty run", sched)
		}
	}
}

func TestRunSimNUMAPlatform(t *testing.T) {
	rep, err := RunSim(SimConfig{Platform: "numa48", Workload: "strassen", Scheduler: "palirria"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxWorkers > 45 {
		t.Fatalf("MaxWorkers = %d beyond the 45-worker cap", rep.MaxWorkers)
	}
}

func TestRunSimValidation(t *testing.T) {
	if _, err := RunSim(SimConfig{Platform: "bogus", Workload: "fib"}); err == nil {
		t.Error("bogus platform must fail")
	}
	if _, err := RunSim(SimConfig{Workload: "bogus"}); err == nil {
		t.Error("bogus workload must fail")
	}
	if _, err := RunSim(SimConfig{Workload: "fib", Scheduler: "bogus"}); err == nil {
		t.Error("bogus scheduler must fail")
	}
	if _, err := RunSim(SimConfig{Workload: "fib", Scheduler: "wool", FixedWorkers: 999}); err == nil {
		t.Error("oversized fixed allotment must fail")
	}
}

func TestRunSimCustomRoot(t *testing.T) {
	// Build a custom workload with the re-exported task DSL.
	var fan func(n int) *TaskSpec
	fan = func(n int) *TaskSpec {
		if n <= 1 {
			return Leaf("leaf", 2000)
		}
		return &TaskSpec{Ops: []TaskOp{
			Spawn(func() *TaskSpec { return fan(n / 2) }),
			Call(func() *TaskSpec { return fan(n - n/2) }),
			Sync(),
		}}
	}
	rep, err := RunSim(SimConfig{Root: fan(64), Scheduler: "palirria"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tasks != 127 {
		t.Fatalf("Tasks = %d, want 127", rep.Tasks)
	}
}

func TestWorkloadRoot(t *testing.T) {
	if _, err := WorkloadRoot("fib", "sim32"); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadRoot("fib", "numa48"); err != nil {
		t.Fatal(err)
	}
	if _, err := WorkloadRoot("fib", "weird"); err == nil {
		t.Error("bad platform must fail")
	}
	if _, err := WorkloadRoot("nope", ""); err == nil {
		t.Error("bad workload must fail")
	}
}

func TestTopologyHelpers(t *testing.T) {
	m, err := NewMesh(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	m.Reserve(0, 1)
	a, err := NewAllotment(m, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(a)
	if len(c.X()) == 0 || len(c.Z()) == 0 {
		t.Fatal("classification empty")
	}
}

func TestEstimatorConstructors(t *testing.T) {
	if NewPalirria().Name() != "palirria" || NewASteal().Name() != "asteal" {
		t.Fatal("estimator names wrong")
	}
}

func TestWorkloadsList(t *testing.T) {
	if len(Workloads()) < 7 {
		t.Fatalf("Workloads() = %v", Workloads())
	}
}

// TestRunSimObserve checks the one observation switch: with Observe a run
// keeps the full event ring and the estimator's per-quantum snapshots;
// without it there is no record at all.
func TestRunSimObserve(t *testing.T) {
	rep, err := RunSim(SimConfig{Workload: "fib", Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obs == nil {
		t.Fatal("Observe run has no Obs record")
	}
	if got := len(rep.Obs.Events); got != 1<<16 {
		t.Fatalf("len(Obs.Events) = %d, want the full ring of %d", got, 1<<16)
	}
	if len(rep.Obs.Snapshots) == 0 {
		t.Fatal("Observe run under palirria recorded no estimator snapshots")
	}
	rep, err = RunSim(SimConfig{Workload: "fib"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Obs != nil {
		t.Fatalf("unobserved run has an Obs record (%d events)", len(rep.Obs.Events))
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := RunSim(SimConfig{Workload: "strassen"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round map[string]interface{}
	if err := jsonUnmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"exec_cycles", "timeline", "workers", "wastefulness_percent"} {
		if _, ok := round[key]; !ok {
			t.Fatalf("JSON missing %q", key)
		}
	}
}
