// Package palirria is a from-scratch reproduction of "Palirria: Accurate
// On-line Parallelism Estimation for Adaptive Work-Stealing" (Varisteas &
// Brorsson, PMAM/PPoPP 2014).
//
// It provides:
//
//   - a WOOL-style work-stealing runtime in two flavours — a deterministic
//     discrete-event simulator (Sim*) that reproduces the paper's
//     evaluation platforms, and a real goroutine-based runtime (package
//     palirria/internal/wsrt via the RT* API) for actually running Go
//     code;
//   - Deterministic Victim Selection (DVS) over 1D/2D/3D mesh topologies,
//     with the X/Z/F worker classification of the paper;
//   - the Palirria estimator (Diaspora Malleability Conditions) and the
//     ASTEAL baseline estimator, both driving a zone-granular system
//     scheduler;
//   - the paper's seven evaluation workloads plus synthetic extras, and a
//     harness regenerating every figure and table of the evaluation
//     (cmd/palirria-bench);
//   - a persistent serving layer (Pool, Tenancy) that keeps the real
//     runtime resident between jobs, with estimator-driven admission
//     control and multi-tenant arbitration (cmd/palirria-serve).
//
// Quick start:
//
//	rep, err := palirria.RunSim(palirria.SimConfig{
//	    Platform:  "sim32",
//	    Workload:  "fib",
//	    Scheduler: "palirria",
//	})
//
// Lower-level control is available through the aliased subsystem types
// below (Mesh, Allotment, TaskSpec, SimMultiConfig, RTConfig, ...).
package palirria

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/experiments"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/plot"
	"palirria/internal/serve"
	"palirria/internal/sim"
	"palirria/internal/sysched"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
	"palirria/internal/wsrt"
)

// --- Re-exported subsystem types ----------------------------------------

// Mesh is a 1-3 dimensional processor grid; see NewMesh.
type Mesh = topo.Mesh

// CoreID identifies a core on a mesh.
type CoreID = topo.CoreID

// Coord is a mesh position.
type Coord = topo.Coord

// Allotment is a workload's worker set.
type Allotment = topo.Allotment

// Classification is the X/Z/F classification of an allotment.
type Classification = topo.Classification

// TaskSpec describes one task of a fork/join program.
type TaskSpec = task.Spec

// TaskOp is one operation of a task program.
type TaskOp = task.Op

// TaskBuilder lazily produces a child task.
type TaskBuilder = task.Builder

// Estimator is the per-quantum resource estimation interface.
type Estimator = core.Estimator

// Snapshot is an estimator's view of the allotment at a quantum boundary.
type Snapshot = core.Snapshot

// WorkerStats is the per-worker cycle accounting.
type WorkerStats = metrics.WorkerStats

// MetricsReport is the aggregated per-run accounting, with a shared table
// renderer (String/WriteTable).
type MetricsReport = metrics.Report

// ObsTrace is a drained observability trace; its WriteChrome method emits
// Chrome trace_event JSON for chrome://tracing and Perfetto.
type ObsTrace = obs.TraceData

// ObsTracer is the structured event tracer shared by both runtimes; see
// NewObsTracer.
type ObsTracer = obs.Tracer

// ObsRegistry is the dependency-free metrics registry behind ServeObs.
type ObsRegistry = obs.Registry

// ObsServer is the live observability HTTP server returned by ServeObs.
type ObsServer = obs.Server

// NewObsTracer builds an event tracer for the real runtime
// (RTConfig.Tracer). ticksPerMicro converts timestamps to microseconds in
// Chrome exports: pass 1000 for the real runtime's nanosecond clocks.
func NewObsTracer(ticksPerMicro float64) *ObsTracer {
	return obs.NewTracer(obs.WithTicksPerMicro(ticksPerMicro))
}

// NewObsRegistry builds an empty metrics registry (RTConfig.Metrics).
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ServeObs starts the observability HTTP server (Prometheus /metrics,
// expvar, pprof) on addr; see obs.Serve.
func ServeObs(addr string, reg *ObsRegistry) (*ObsServer, error) {
	return obs.Serve(addr, reg)
}

// Timeline is the allotment-size-over-time trace.
type Timeline = metrics.Timeline

// NewMesh builds a mesh topology with the given extents (1-3 dimensions).
func NewMesh(dims ...int) (*Mesh, error) { return topo.NewMesh(dims...) }

// NewAllotment builds the complete allotment of diaspora d around source.
func NewAllotment(m *Mesh, source CoreID, d int) (*Allotment, error) {
	return topo.NewAllotment(m, source, d)
}

// Classify computes the X/Z/F classification of an allotment.
func Classify(a *Allotment) *Classification { return topo.Classify(a) }

// NewPalirria returns the paper's estimator.
func NewPalirria() Estimator { return core.NewPalirria() }

// NewASteal returns the ASTEAL baseline estimator.
func NewASteal() Estimator { return asteal.New() }

// Task DSL constructors, re-exported for custom workloads.
var (
	// Compute returns a compute op of w cycles.
	Compute = task.Compute
	// Spawn returns a spawn op (stealable child).
	Spawn = task.Spawn
	// Call returns an inline-call op.
	Call = task.Call
	// Sync returns a join of the youngest outstanding spawn.
	Sync = task.Sync
	// Leaf returns a compute-only task.
	Leaf = task.Leaf
)

// Workloads returns the names of the built-in workloads.
func Workloads() []string { return workload.Names() }

// WorkloadRoot builds the root task of a built-in workload for the given
// platform ("sim32" or "numa48").
func WorkloadRoot(name, platform string) (*TaskSpec, error) {
	d, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	p, err := platformOf(platform)
	if err != nil {
		return nil, err
	}
	return d.Root(p.WL), nil
}

// platformOf resolves a facade platform name to the evaluation platform
// the paper's figures run on.
func platformOf(name string) (experiments.Platform, error) {
	switch name {
	case "", "sim32":
		return experiments.SimPlatform(), nil
	case "numa48":
		return experiments.LinuxPlatform(), nil
	}
	return experiments.Platform{}, fmt.Errorf("palirria: unknown platform %q (sim32, numa48)", name)
}

// SimJob describes one application of a multiprogrammed simulation.
type SimJob = sim.Job

// SimMultiConfig configures a multiprogrammed simulation: several jobs
// co-scheduled on one mesh through the arbiter (the paper's §8 next step).
type SimMultiConfig = sim.MultiConfig

// SimMultiResult is a multiprogrammed run's outcome.
type SimMultiResult = sim.MultiResult

// SimRunMulti executes a multiprogrammed simulation.
func SimRunMulti(cfg SimMultiConfig) (*SimMultiResult, error) { return sim.RunMulti(cfg) }

// --- Real-threads runtime (package wsrt) ---------------------------------

// RTConfig configures the real goroutine-based work-stealing runtime.
type RTConfig = wsrt.Config

// RTCtx is the per-task context of the real runtime (Spawn/Sync/Compute).
type RTCtx = wsrt.Ctx

// RTFunc is a task body for the real runtime.
type RTFunc = wsrt.Func

// RTReport is a real-runtime run report.
type RTReport = wsrt.Report

// RTRuntime is a single-use real-threads runtime instance.
type RTRuntime = wsrt.Runtime

// RTJob pairs a task body with its completion callback for RTRuntime's
// batched submission path (SubmitBatch).
type RTJob = wsrt.Job

// NewRuntime builds a real-threads work-stealing runtime.
func NewRuntime(cfg RTConfig) (*RTRuntime, error) { return wsrt.New(cfg) }

// Real-runtime sentinel errors, re-exported for callers of the facade
// (internal/wsrt is unimportable from outside the module).
var (
	// ErrAlreadyUsed reports a second Run (or a Start after Run) on a
	// single-use runtime.
	ErrAlreadyUsed = wsrt.ErrAlreadyUsed
	// ErrNotPersistent reports Submit/Shutdown on a batch-mode runtime.
	ErrNotPersistent = wsrt.ErrNotPersistent
	// ErrRuntimeClosed reports Submit after Shutdown.
	ErrRuntimeClosed = wsrt.ErrClosed
	// ErrSubmitQueueFull reports that the aggregate bound on
	// submitted-but-unstarted jobs (across the per-worker injection
	// shards) is saturated.
	ErrSubmitQueueFull = wsrt.ErrSubmitQueueFull
)

// --- Serving layer (package serve) ---------------------------------------

// Pool is a persistent serving pool: a resident real runtime admitting a
// continuous stream of fork/join jobs with bounded queues, estimator-driven
// load shedding, and graceful drain. See NewPool.
type Pool = serve.Pool

// PoolConfig configures a serving pool.
type PoolConfig = serve.Config

// PoolStats is a point-in-time snapshot of a pool's serving counters.
type PoolStats = serve.Stats

// Tenancy redistributes worker shares among several resident pools over
// one machine model (the paper's Fig. 2 two-level architecture, live).
type Tenancy = serve.Tenancy

// TenantStatus is one tenant's arbitration state.
type TenantStatus = serve.TenantStatus

// Serving-layer sentinel errors returned by Pool.Submit.
var (
	// ErrQueueFull reports a full admission queue.
	ErrQueueFull = serve.ErrQueueFull
	// ErrOverloaded reports estimator-driven load shedding.
	ErrOverloaded = serve.ErrOverloaded
	// ErrDraining reports a pool that no longer admits work.
	ErrDraining = serve.ErrDraining
	// ErrDiscarded reports a job discarded at shutdown before it ran.
	ErrDiscarded = serve.ErrDiscarded
	// ErrExpired reports a submission whose context was already done at
	// admission; nothing was admitted. It also matches ctx.Err().
	ErrExpired = serve.ErrExpired
)

// NewPool builds a serving pool and starts its resident runtime.
func NewPool(cfg PoolConfig) (*Pool, error) { return serve.New(cfg) }

// NewTenancy builds a multi-tenant arbitration loop over the machine
// model; interval is the re-arbitration period (<= 0 for the default).
func NewTenancy(machine *Mesh, interval time.Duration) *Tenancy {
	return serve.NewTenancy(machine, interval)
}

// --- Multiprogramming (package sysched) ----------------------------------

// Arbiter co-schedules several applications on one mesh (paper Fig. 2).
type Arbiter = sysched.Arbiter

// App is one application registered with an Arbiter.
type App = sysched.App

// NewArbiter returns an arbiter over mesh.
func NewArbiter(m *Mesh) *Arbiter { return sysched.NewArbiter(m) }

// RenderClassGrid writes an allotment's DVS classification as a text grid
// (the paper's Figs. 1/9 style).
func RenderClassGrid(w io.Writer, title string, c *Classification) {
	plot.ClassGrid(w, title, c)
}

// RenderOwnership writes a mesh ownership map for several co-scheduled
// applications (the paper's Fig. 2 style).
func RenderOwnership(w io.Writer, title string, m *Mesh, apps []*Allotment) {
	plot.MultiClassGrid(w, title, m, apps)
}

// --- High-level API ------------------------------------------------------

// SimConfig is the high-level single-run configuration.
type SimConfig struct {
	// Platform selects the evaluation platform: "sim32" (ideal 32-core 8x4
	// mesh, the paper's Barrelfish simulator) or "numa48" (the 48-core
	// NUMA model of the paper's Linux machine). Default "sim32".
	Platform string
	// Workload names a built-in workload (see Workloads). Ignored when
	// Root is set.
	Workload string
	// Root optionally supplies a custom task tree.
	Root *TaskSpec
	// Scheduler selects "wool" (fixed allotment, random victims),
	// "asteal" (adaptive baseline) or "palirria" (DVS + DMC estimation).
	// Default "palirria".
	Scheduler string
	// FixedWorkers sets the allotment size for "wool": a complete
	// allotment size of the platform (sim32: 5/12/20/27; numa48:
	// 5/13/24/35/42/45); 0 = the largest. Any other size is an error.
	// Adaptive schedulers start at 5 workers per the paper.
	FixedWorkers int
	// Quantum overrides the estimation interval in cycles.
	Quantum int64
	// Seed drives random victim selection.
	Seed uint64
	// Observe records the run into Report.Obs: the newest 1<<16 scheduler
	// events (exportable as Chrome trace JSON) and, under an adaptive
	// scheduler, one estimator snapshot per quantum.
	Observe bool
}

// Report is the high-level outcome of a run.
type Report struct {
	// ExecCycles is the execution time measured at the source worker.
	ExecCycles int64
	// MaxWorkers is the peak allotment size.
	MaxWorkers int
	// AvgWorkers is the time-averaged allotment size.
	AvgWorkers float64
	// WastefulnessPercent is the paper's wasted-cycles metric.
	WastefulnessPercent float64
	// Steals and FailedProbes aggregate the steal activity.
	Steals, FailedProbes int64
	// Tasks counts executed tasks.
	Tasks int64
	// Timeline is the allotment size over time.
	Timeline *Timeline
	// Workers holds the per-core statistics.
	Workers map[CoreID]*WorkerStats
	// Metrics is the aggregated accounting with the shared table renderer.
	Metrics *MetricsReport
	// Obs is the run's event and estimator-snapshot record (nil unless
	// SimConfig.Observe).
	Obs *ObsTrace
}

// RunSim executes the high-level configuration on the simulator.
func RunSim(cfg SimConfig) (*Report, error) {
	p, err := platformOf(cfg.Platform)
	if err != nil {
		return nil, err
	}
	root := cfg.Root
	if root == nil {
		d, err := workload.Get(cfg.Workload)
		if err != nil {
			return nil, err
		}
		root = d.Root(p.WL)
	}
	mode := experiments.Mode(cfg.Scheduler)
	if mode == "" {
		mode = experiments.ModePalirria
	}
	// The platform's own Seed and Quantum are the figures' settings; the
	// facade keeps SimConfig's.
	p.Seed, p.Quantum = cfg.Seed, cfg.Quantum
	rc, err := p.Config(root, mode, cfg.FixedWorkers)
	if err != nil {
		return nil, err
	}
	rc.Observe = cfg.Observe
	run, err := experiments.RunConfig(rc)
	if err != nil {
		return nil, err
	}
	res, rep := run.Result, run.Report
	return &Report{
		ExecCycles:          res.ExecCycles,
		MaxWorkers:          rep.MaxWorkers,
		AvgWorkers:          run.AvgWorkers,
		WastefulnessPercent: run.WastePct,
		Steals:              rep.TotalSteals,
		FailedProbes:        rep.TotalFailedProbes,
		Tasks:               rep.TotalTasks,
		Timeline:            res.Timeline,
		Workers:             res.Workers,
		Metrics:             rep,
		Obs:                 res.Obs,
	}, nil
}

// reportJSON is the serializable projection of a Report.
type reportJSON struct {
	ExecCycles          int64               `json:"exec_cycles"`
	MaxWorkers          int                 `json:"max_workers"`
	AvgWorkers          float64             `json:"avg_workers"`
	WastefulnessPercent float64             `json:"wastefulness_percent"`
	Steals              int64               `json:"steals"`
	FailedProbes        int64               `json:"failed_probes"`
	Tasks               int64               `json:"tasks"`
	Timeline            []timelinePointJSON `json:"timeline"`
	Workers             map[int]workerJSON  `json:"workers"`
	EstimatorTrace      []core.Explanation  `json:"estimator_trace,omitempty"`
}

type timelinePointJSON struct {
	Time    int64 `json:"time"`
	Workers int   `json:"workers"`
}

type workerJSON struct {
	Useful       int64            `json:"useful_cycles"`
	Wasted       int64            `json:"wasted_cycles"`
	Total        int64            `json:"total_cycles"`
	Tasks        int64            `json:"tasks"`
	Steals       int64            `json:"steals"`
	FailedProbes int64            `json:"failed_probes"`
	JoinedAt     int64            `json:"joined_at"`
	RetiredAt    int64            `json:"retired_at"`
	Cycles       map[string]int64 `json:"cycles"`
}

// JSON serializes the report for downstream analysis tools.
func (r *Report) JSON() ([]byte, error) {
	out := reportJSON{
		ExecCycles:          r.ExecCycles,
		MaxWorkers:          r.MaxWorkers,
		AvgWorkers:          r.AvgWorkers,
		WastefulnessPercent: r.WastefulnessPercent,
		Steals:              r.Steals,
		FailedProbes:        r.FailedProbes,
		Tasks:               r.Tasks,
		Workers:             map[int]workerJSON{},
	}
	for _, p := range r.Timeline.Points() {
		out.Timeline = append(out.Timeline, timelinePointJSON{Time: p.Time, Workers: p.Workers})
	}
	for id, ws := range r.Workers {
		cycles := make(map[string]int64, metrics.NumCategories)
		for c := metrics.Category(0); c < metrics.NumCategories; c++ {
			if v := ws.Cycles[c]; v != 0 {
				cycles[c.String()] = v
			}
		}
		out.Workers[int(id)] = workerJSON{
			Useful:       ws.Useful(),
			Wasted:       ws.Wasted(),
			Total:        ws.Total(),
			Tasks:        ws.TasksRun,
			Steals:       ws.Steals,
			FailedProbes: ws.FailedProbes,
			JoinedAt:     ws.JoinedAt,
			RetiredAt:    ws.RetiredAt,
			Cycles:       cycles,
		}
	}
	if r.Obs != nil {
		out.EstimatorTrace = r.Obs.Snapshots
	}
	return json.MarshalIndent(out, "", "  ")
}
