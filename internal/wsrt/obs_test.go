package wsrt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/obs"
)

// fanRoot is a bursty workload long enough to span several quanta.
func fanRoot(c *Ctx) {
	var fan func(c *Ctx, n int)
	fan = func(c *Ctx, n int) {
		if n <= 1 {
			c.Compute(100_000)
			return
		}
		c.Spawn(func(cc *Ctx) { fan(cc, n/2) })
		fan(c, n-n/2)
		c.Sync()
	}
	for burst := 0; burst < 6; burst++ {
		c.Compute(500_000)
		fan(c, 64)
	}
}

// TestRuntimeTracerAndMetrics drives the real runtime with the full
// observability stack: structured tracing, estimator introspection (which
// a Tracer on a runtime with an estimator implies), and the Prometheus
// registry, and cross-checks them against the run report.
func TestRuntimeTracerAndMetrics(t *testing.T) {
	tracer := obs.NewTracer(obs.WithTicksPerMicro(1000))
	reg := obs.NewRegistry()
	rt, err := New(Config{
		Mesh: smallMesh(t), Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
		Tracer:    tracer, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(fanRoot)
	if err != nil {
		t.Fatal(err)
	}

	data := tracer.Drain()
	if data.TicksPerMicro != 1000 {
		t.Fatalf("TicksPerMicro = %v, want 1000", data.TicksPerMicro)
	}
	counts := data.Counts()
	for _, k := range []obs.Kind{obs.KindSpawn, obs.KindTaskDone, obs.KindQuantum} {
		if counts[k] == 0 {
			t.Errorf("no %v events recorded", k)
		}
	}
	var totalSteals, totalTasks int64
	for _, wr := range rep.Workers {
		totalSteals += wr.Steals
		totalTasks += wr.Tasks
	}
	if totalSteals > 0 && counts[obs.KindSteal] == 0 {
		t.Error("report has steals but the trace recorded none")
	}
	// Rings drop under pressure, so the trace is a lower bound.
	if got := counts[obs.KindTaskDone] + data.Dropped; got < totalTasks {
		t.Errorf("done events (%d) + dropped (%d) < tasks run (%d)", counts[obs.KindTaskDone], data.Dropped, totalTasks)
	}
	if len(data.Snapshots) == 0 {
		t.Fatal("no estimator snapshots recorded: a Tracer plus an Estimator must record them")
	}
	for _, es := range data.Snapshots {
		if es.Estimator != "palirria" {
			t.Fatalf("estimator = %q", es.Estimator)
		}
		if es.Allotment <= 0 {
			t.Fatalf("bad snapshot %+v", es)
		}
	}

	var buf bytes.Buffer
	if err := data.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatal("chrome export missing traceEvents")
	}

	// Metrics: names present, values consistent with the report.
	var prom bytes.Buffer
	reg.WritePrometheus(&prom)
	out := prom.String()
	for _, name := range []string{
		"palirria_steals_total", "palirria_failed_probes_total",
		"palirria_tasks_total", "palirria_quanta_total",
		"palirria_allotment_workers",
		"palirria_worker_useful_ns", "palirria_worker_search_ns",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics output missing %s:\n%s", name, out)
		}
	}
	if want := fmt.Sprintf("palirria_tasks_total %d", totalTasks); !strings.Contains(out, want) {
		t.Errorf("metrics output missing %q", want)
	}
	if want := fmt.Sprintf("palirria_steals_total %d", totalSteals); !strings.Contains(out, want) {
		t.Errorf("metrics output missing %q", want)
	}
	if !strings.Contains(out, `palirria_worker_useful_ns{core="0"}`) {
		t.Errorf("metrics output missing per-core series:\n%s", out)
	}
}

// TestTracedExplanationsMatchDecisions holds the estimator trace to the
// decision log: a traced run records one explanation per logged quantum,
// and each carries that quantum's raw and filtered desire and grant.
func TestTracedExplanationsMatchDecisions(t *testing.T) {
	tracer := obs.NewTracer(obs.WithTicksPerMicro(1000))
	rt, err := New(Config{
		Mesh: smallMesh(t), Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(fanRoot)
	if err != nil {
		t.Fatal(err)
	}
	ds := rep.Decisions.Decisions()
	exs := tracer.Drain().Snapshots
	if len(ds) == 0 || len(exs) != len(ds) {
		t.Fatalf("%d explanations for %d decisions", len(exs), len(ds))
	}
	for i, d := range ds {
		ex := exs[i]
		if ex.RawDesire != d.Raw || ex.FilteredDesire != d.Desired || ex.Granted != d.Granted {
			t.Fatalf("quantum %d: explanation %+v, decision %+v", i, ex, d)
		}
	}
}

// TestTracingDisabledByDefault pins the nil fast path: no Tracer, no
// events, no metric registration side effects.
func TestTracingDisabledByDefault(t *testing.T) {
	rt, err := New(Config{Mesh: smallMesh(t), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rt.workerList {
		if w.ring != nil {
			t.Fatal("ring allocated without a tracer")
		}
	}
	if _, err := rt.Run(func(c *Ctx) { c.Compute(1000) }); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerTimeAccountingInvariant pins the exclusive time-accounting
// rule: every worker nanosecond lands in exactly one of UsefulNS,
// SearchNS, or IdleNS, so their sum never exceeds the worker's wall time.
// The seed double-counted here — Sync's leapfrog steals charged SearchNS
// inside a window that runTask then also charged whole to UsefulNS — so
// deep-syncing workloads reported sums well above 100% of wall time.
//
// The bound uses wall time measured around Run *including teardown*,
// because workers keep accumulating idle time between root completion and
// their stop token; rep.WallNS stops at root completion and would
// spuriously trip the bound.
func TestWorkerTimeAccountingInvariant(t *testing.T) {
	rt, err := New(Config{
		Mesh: smallMesh(t), Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := nowNS()
	rep, err := rt.Run(fanRoot)
	if err != nil {
		t.Fatal(err)
	}
	outerWall := nowNS() - t0 // Run returns after teardown: all workers stopped
	const slack = int64(time.Millisecond)
	for id, wr := range rep.Workers {
		sum := wr.UsefulNS + wr.SearchNS + wr.IdleNS
		if sum > outerWall+slack {
			t.Errorf("worker %d: useful(%d)+search(%d)+idle(%d) = %d exceeds wall %d — time double-counted",
				id, wr.UsefulNS, wr.SearchNS, wr.IdleNS, sum, outerWall)
		}
		if wr.Tasks > 0 && wr.UsefulNS <= 0 {
			t.Errorf("worker %d ran %d tasks but reports %dns useful time", id, wr.Tasks, wr.UsefulNS)
		}
	}
}

// TestWorkerTimeAccountingInvariantPersistent pins the same partition for
// persistent mode against the report's own wall clock. Shutdown used to
// capture WallNS before tearing the workers down, so idle time accrued
// during the quiesce could push a worker's sum past the reported wall;
// the wall is now read after teardown and the report must be
// self-consistent with no outer measurement needed.
func TestWorkerTimeAccountingInvariantPersistent(t *testing.T) {
	rt, err := New(Config{
		Mesh: smallMesh(t), Source: 0,
		Estimator: core.NewPalirria(),
		Quantum:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		done := make(chan struct{})
		if err := rt.Submit(fanRoot, func() { close(done) }); err != nil {
			t.Fatal(err)
		}
		<-done
		time.Sleep(time.Millisecond) // let workers park between jobs
	}
	rep, err := rt.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	const slack = int64(time.Millisecond)
	for id, wr := range rep.Workers {
		sum := wr.UsefulNS + wr.SearchNS + wr.IdleNS
		if sum > rep.WallNS+slack {
			t.Errorf("worker %d: useful(%d)+search(%d)+idle(%d) = %d exceeds reported wall %d — wall captured before quiesce?",
				id, wr.UsefulNS, wr.SearchNS, wr.IdleNS, sum, rep.WallNS)
		}
	}
}
