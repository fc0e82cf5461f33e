// Package wsrt is a real goroutine-based WOOL-style work-stealing runtime
// with adaptive allotments: the counterpart of the paper's Linux
// implementation, where the simulator package is the counterpart of its
// Barrelfish/Simics one.
//
// Workers are goroutines, each owning a lock-free Chase-Lev deque. Only
// under Config.Pin are they locked to OS threads and, on Linux,
// best-effort pinned to cores with sched_setaffinity; no serving path sets
// it, so there workers share GOMAXPROCS with every other goroutine. The
// programming model is WOOL's: Spawn places a stealable task in the
// owner's queue, Sync joins the youngest outstanding spawn — popping and
// running it inline, at about the cost of a call, when it was not stolen,
// leapfrog-stealing while waiting when it was. Victim selection is
// pluggable (DVS or random), and a helper goroutine drives a
// core.Controller once per quantum, growing and shrinking the allotment
// zone by zone through sysched.Manager, with removed workers draining
// exactly as §4.1.1 prescribes.
//
// Caveat (from the reproduction calibration): Go's own scheduler sits
// under the workers, so wall-clock results are noisier than the paper's
// pthread runtime and far noisier than the deterministic simulator. The
// paper's figures therefore come from the simulator; the benchmark
// harness drives this package directly in forkjoin_batch and, through
// the serving pool, in serve_waves and serve_dag.
package wsrt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/sysched"
	"palirria/internal/topo"
)

// Func is a task body. The Ctx is only valid for the duration of the call.
type Func func(*Ctx)

// Sentinel errors of the runtime lifecycle.
var (
	// ErrAlreadyUsed reports a second Run (or Start) on a Runtime. A
	// Runtime executes at most one batch root or one persistent session;
	// build a new Runtime for the next one.
	ErrAlreadyUsed = errors.New("wsrt: runtime already used")
	// ErrNotPersistent reports Submit or Shutdown on a runtime that was
	// not started with Start.
	ErrNotPersistent = errors.New("wsrt: runtime is not in persistent mode")
	// ErrClosed reports Submit or Shutdown after Shutdown.
	ErrClosed = errors.New("wsrt: runtime is shut down")
	// ErrSubmitQueueFull reports a Submit rejected because the runtime's
	// bounded submission backlog (SubmitQueueCap, aggregated across the
	// per-worker injection shards) is saturated.
	ErrSubmitQueueFull = errors.New("wsrt: submit queue full")
)

// Config describes a runtime instance.
type Config struct {
	// Mesh is the virtual topology workers are laid out on; defaults to a
	// 1xN mesh over GOMAXPROCS cores.
	Mesh *topo.Mesh
	// Source is the core the root task starts on (default: first usable).
	Source topo.CoreID
	// InitialDiaspora sets the starting allotment (default 1).
	InitialDiaspora int
	// Policy selects victim selection: "dvs" (the default), "random" or
	// "roundrobin"; any other name means DVS (see dvs.ForResident).
	Policy string
	// Seed drives the random policy.
	Seed uint64
	// Estimator enables adaptation; nil runs the fixed initial allotment.
	Estimator core.Estimator
	// Quantum is the estimation interval (default 2ms).
	Quantum time.Duration
	// QueueCap is the per-worker deque capacity (default 1024).
	QueueCap int
	// Pin locks workers to OS threads and, on Linux, sets CPU affinity.
	Pin bool

	// Tracer enables structured event tracing: every worker gets its own
	// drop-newest ring (safe under concurrent draining), and with an
	// Estimator every quantum records a core.Explanation. Create it
	// with obs.NewTracer(obs.WithTicksPerMicro(1000)) — timestamps are wall
	// nanoseconds relative to Run's start. Nil disables tracing; the
	// disabled hot path is one nil comparison per event site.
	Tracer *obs.Tracer
	// Metrics registers the runtime's live counters and gauges (steals,
	// failed probes, tasks, allotment size, parked waiters, wakeups,
	// per-worker useful/search/idle time) on the registry; serve it with
	// obs.Serve. Nil disables registration.
	Metrics *obs.Registry
	// MetricLabels are appended to every metric series this runtime
	// registers. Serving layers that put several resident runtimes on one
	// shared registry (one per tenant pool) use them to keep the series
	// distinct; empty is fine for a single runtime.
	MetricLabels []obs.Label

	// OnQuantum, when set, is invoked by the estimation helper after every
	// quantum's grant with that quantum's decision: the estimator's desire
	// before and after the false-positive filter and the grant. It runs
	// on the helper goroutine and must be fast and non-blocking.
	OnQuantum func(metrics.Decision)
	// SubmitQueueCap bounds the persistent-mode submission backlog (default
	// 64): the aggregate number of submitted-but-unstarted job roots across
	// all per-worker injection shards. Irrelevant for batch Run.
	SubmitQueueCap int
}

// WorkerReport is one worker's accounting, in nanoseconds where the
// simulator reports cycles.
type WorkerReport struct {
	// UsefulNS is time spent executing task bodies. A child popped back
	// at its parent's Sync (or run inline on a full deque) is counted in
	// its parent's window; a leapfrog steal is counted as its own task.
	// Each span lands in exactly one task, so UsefulNS + SearchNS + IdleNS
	// never exceeds the worker's wall time.
	UsefulNS int64
	// SearchNS is time actively spent looking for work: steal probes and
	// the bounded pre-park spin. Parked time is not search time — that
	// split is what lets the estimators see true wasted effort.
	SearchNS int64
	// IdleNS is time spent blocked in the event-driven park (no work
	// anywhere, waiting for a wakeup). The estimation helper charges it to
	// WastedCycles together with SearchNS, preserving ASTEAL's view.
	IdleNS int64
	// Tasks, Steals, FailedProbes count events.
	Tasks, Steals, FailedProbes int64
	// ShardSteals counts injected job roots this worker pulled from a
	// sibling's injection shard (its own shard's drains are not steals).
	ShardSteals int64
}

// Report is a run's outcome.
type Report struct {
	// WallNS is the root task's wall-clock time in nanoseconds.
	WallNS int64
	// Workers maps cores to per-worker reports.
	Workers map[topo.CoreID]*WorkerReport
	// Timeline is the allotment size over time (nanoseconds).
	Timeline *metrics.Timeline
	// Decisions logs the estimator's quanta.
	Decisions *metrics.Log
	// MaxWorkers is the peak allotment size.
	MaxWorkers int
}

// Runtime is a work-stealing runtime with two mutually exclusive modes:
//
//   - batch: New, then Run exactly once — workers come up, execute the
//     root to completion, and tear down (a second Run returns
//     ErrAlreadyUsed);
//   - persistent: New, then Start — workers stay resident, the estimation
//     helper keeps ticking even while idle (so the allotment shrinks in
//     valleys and regrows on load), and a continuous stream of job roots
//     enters through Submit until Shutdown.
type Runtime struct {
	cfg  Config
	mesh *topo.Mesh
	mgr  *sysched.Manager
	ctrl *core.Controller

	// workerList holds one worker per usable core in core-id order. Every
	// walk over the workers goes through it, so walks are deterministic.
	workerList []*worker
	// byID is a dense CoreID -> worker index for the hot paths (steal
	// probes, shard scans): a slice load is ~3x cheaper than a map lookup
	// and showed up at ~8% of CPU in the submit-throughput profile.
	// Entries for reserved cores are nil.
	byID   []*worker
	policy atomic.Value // *policyBundle over the resident set

	// policyMu serializes rebuildPolicy: the helper rebuilds on allotment
	// changes and retiring workers rebuild to purge themselves from the
	// wake graph, so unordered stores could publish a bundle built from a
	// stale resident set over a fresher one.
	policyMu sync.Mutex
	// grantedA is the freshest granted allotment. Only the helper stores
	// it (after Grant, before rebuilding), but retiring workers load it,
	// so it cannot be read from mgr.Current directly.
	grantedA atomic.Pointer[topo.Allotment]

	// idle-path state: idleWaiters counts announced waiters (the fast-path
	// gate of every wake probe), parks and wakeups feed the live metrics.
	idleWaiters atomic.Int64
	parks       atomic.Int64
	wakeups     atomic.Int64

	rootDone chan struct{}
	started  atomic.Bool
	finished atomic.Bool

	// persistent-mode state: job roots enter the per-worker injection
	// shards (worker.shard) through one submit body (SubmitBatch) and leave
	// through one pop (popShard). The body reserves on the gate before it
	// pushes and popShard releases what it pops; Shutdown closes the gate
	// and flushes until every reservation is back, so no accepted job can
	// be silently lost.
	persistent bool
	stopHelper chan struct{}
	helperDone chan struct{}

	gate gate

	timeline metrics.Timeline
	tlMu     sync.Mutex
	startNS  int64

	// helperRing carries the helper goroutine's grant/quantum events;
	// allotSize and quanta back the live metrics gauges.
	helperRing *obs.Ring
	allotSize  atomic.Int64
	quanta     atomic.Int64

	// qseq is the estimation-quantum sequence number. Workers reset their
	// µ(Q) high-water mark lazily on the first spawn of each quantum
	// (noteSpawn) rather than the helper zeroing it: on an oversubscribed
	// host a worker may get no CPU at all between two quantum boundaries,
	// and a zeroed mark would then misreport "no parallelism here" when
	// the truth is "the OS scheduler didn't run me". The lazy reset makes
	// the helper sample each worker's most recent active window instead.
	qseq atomic.Int64

	wg sync.WaitGroup
}

// New builds a runtime. Workers are created for every usable core of the
// mesh but only the initial allotment is active; the rest are parked until
// the estimator grows into them.
func New(cfg Config) (*Runtime, error) {
	if cfg.Mesh == nil {
		n := runtime.GOMAXPROCS(0)
		if n < 2 {
			n = 2
		}
		m, err := topo.NewMesh(n)
		if err != nil {
			return nil, err
		}
		cfg.Mesh = m
	}
	if cfg.Source == 0 && cfg.Mesh.Reserved(0) {
		for id := topo.CoreID(0); int(id) < cfg.Mesh.NumCores(); id++ {
			if !cfg.Mesh.Reserved(id) {
				cfg.Source = id
				break
			}
		}
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 1024
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 2 * time.Millisecond
	}
	// Clamp to the topology: InitialDiaspora beyond the mesh means "start
	// with every usable core".
	if max := cfg.Mesh.MaxDiaspora(cfg.Source); cfg.InitialDiaspora > max && max >= 1 {
		cfg.InitialDiaspora = max
	}
	if cfg.Policy == "" {
		cfg.Policy = "dvs"
	}
	if cfg.SubmitQueueCap <= 0 {
		cfg.SubmitQueueCap = 64
	}
	mgr, err := sysched.NewManager(cfg.Mesh, cfg.Source, cfg.InitialDiaspora, 0)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:      cfg,
		mesh:     cfg.Mesh,
		mgr:      mgr,
		rootDone: make(chan struct{}),
	}
	if cfg.Estimator != nil {
		r.ctrl = core.NewController(cfg.Estimator)
	}
	// Create a worker for every usable core; activate the initial set.
	r.byID = make([]*worker, r.mesh.NumCores())
	for id := topo.CoreID(0); int(id) < r.mesh.NumCores(); id++ {
		if r.mesh.Reserved(id) {
			continue
		}
		w := newWorker(r, id)
		if cfg.Tracer != nil {
			w.ring = cfg.Tracer.NewRing(false)
			cfg.Tracer.SetWorkerName(int32(id), fmt.Sprintf("core %d", id))
		}
		r.workerList = append(r.workerList, w)
		r.byID[id] = w
	}
	r.gate.limit = int64(cfg.SubmitQueueCap)
	if cfg.Tracer != nil {
		r.helperRing = cfg.Tracer.NewRing(false)
	}
	r.allotSize.Store(int64(mgr.Current().Size()))
	r.grantedA.Store(mgr.Current())
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	r.rebuildPolicy()
	return r, nil
}

// registerMetrics exposes the runtime's live state on reg. All values are
// sampled from atomics at scrape time; registration happens once here.
func (r *Runtime) registerMetrics(reg *obs.Registry) {
	sum := func(f func(*worker) *int64) func() float64 {
		return func() float64 {
			var t int64
			for _, w := range r.workerList {
				t += atomic.LoadInt64(f(w))
			}
			return float64(t)
		}
	}
	base := r.cfg.MetricLabels
	reg.CounterFunc("palirria_steals_total", "Successful steals across all workers.",
		sum(func(w *worker) *int64 { return &w.stats.Steals }), base...)
	reg.CounterFunc("palirria_failed_probes_total", "Steal probes that found nothing stealable.",
		sum(func(w *worker) *int64 { return &w.stats.FailedProbes }), base...)
	reg.CounterFunc("palirria_tasks_total", "Tasks executed to completion.",
		sum(func(w *worker) *int64 { return &w.stats.Tasks }), base...)
	reg.CounterFunc("palirria_quanta_total", "Estimation quanta processed.",
		func() float64 { return float64(r.quanta.Load()) }, base...)
	reg.GaugeFunc("palirria_allotment_workers", "Current allotment size.",
		func() float64 { return float64(r.allotSize.Load()) }, base...)
	reg.GaugeFunc("palirria_idle_waiters", "Workers currently announced as idle waiters.",
		func() float64 { return float64(r.idleWaiters.Load()) }, base...)
	reg.CounterFunc("palirria_parks_total", "Times a worker blocked in the event-driven idle path.",
		func() float64 { return float64(r.parks.Load()) }, base...)
	reg.CounterFunc("palirria_wakeups_total", "Wake tokens delivered to announced idle workers.",
		func() float64 { return float64(r.wakeups.Load()) }, base...)
	reg.CounterFunc("palirria_injected_total", "Job roots accepted by Submit/SubmitBatch.",
		func() float64 { return float64(r.injectedTotal()) }, base...)
	reg.CounterFunc("palirria_shard_steals_total", "Injected job roots taken from a sibling's shard.",
		sum(func(w *worker) *int64 { return &w.stats.ShardSteals }), base...)
	reg.GaugeFunc("palirria_submit_backlog", "Submitted job roots not yet started, across all shards.",
		func() float64 { return float64(r.backlogTotal()) }, base...)
	reg.GaugeFunc("palirria_submit_slack", "Unreserved submission-backlog capacity (SubmitQueueCap minus reserved units).",
		func() float64 { return float64(r.gate.limit - r.gate.reserved()) }, base...)
	for _, w := range r.workerList {
		w := w
		lbls := append(append([]obs.Label(nil), base...), obs.Label{Key: "core", Value: fmt.Sprint(w.id)})
		reg.GaugeFunc("palirria_worker_useful_ns", "Nanoseconds spent executing tasks.",
			func() float64 { return float64(atomic.LoadInt64(&w.stats.UsefulNS)) }, lbls...)
		reg.GaugeFunc("palirria_worker_search_ns", "Nanoseconds spent searching for work.",
			func() float64 { return float64(atomic.LoadInt64(&w.stats.SearchNS)) }, lbls...)
		reg.GaugeFunc("palirria_worker_idle_ns", "Nanoseconds spent parked waiting for work.",
			func() float64 { return float64(atomic.LoadInt64(&w.stats.IdleNS)) }, lbls...)
		reg.GaugeFunc("palirria_shard_depth", "Injected job roots waiting in this worker's shard.",
			func() float64 { return float64(w.shard.Len()) }, lbls...)
	}
}

// Run executes root to completion and returns the report. Run is the
// batch mode of the runtime and is single-use: a second Run (or a Run
// after Start) returns ErrAlreadyUsed.
func (r *Runtime) Run(root Func) (*Report, error) {
	if !r.started.CompareAndSwap(false, true) {
		return nil, ErrAlreadyUsed
	}
	// Seed the root on the source worker's deque before launch: the deque
	// is single-owner, and the go statement that starts its owner is the
	// happens-before edge that hands the push over (a push after launch
	// would race the owner's first PopBottom and could lose the root).
	rootTask := &rtTask{fn: root, onDone: func() {
		r.finished.Store(true)
		close(r.rootDone)
	}}
	r.byID[r.cfg.Source].deque.PushBottom(rootTask) // empty deque: cannot be full
	r.launch(false)

	<-r.rootDone
	wall := nowNS() - r.startNS
	r.teardown()
	return r.buildReport(wall), nil
}

// Start brings the runtime up in persistent mode: every worker goroutine
// is launched (non-granted ones park) and the estimation helper begins
// ticking, but no root is seeded — jobs arrive through Submit and the
// runtime stays resident until Shutdown. While idle the estimator's
// desire decays and the allotment shrinks toward the minimal zone; bursts
// of submitted work grow it back. Like Run, Start is single-use.
func (r *Runtime) Start() error {
	if !r.started.CompareAndSwap(false, true) {
		return ErrAlreadyUsed
	}
	r.launch(true)
	return nil
}

// Shutdown stops a persistent runtime: the helper and all workers exit,
// and the final report (timeline, decisions, per-worker accounting) is
// returned. Jobs still waiting in the injection shards are discarded
// without running — callers wanting a graceful drain must wait for their
// in-flight jobs before calling Shutdown — but their onDone callbacks
// still fire so no waiter is leaked.
func (r *Runtime) Shutdown() (*Report, error) {
	if !r.persistent {
		return nil, ErrNotPersistent
	}
	if !r.gate.close() {
		return nil, ErrClosed
	}
	r.finished.Store(true)
	r.teardown()
	// Wall clock is captured after quiesce: workers keep accruing IdleNS
	// until their stop token lands, so a wall captured before teardown
	// could be exceeded by a worker's UsefulNS+SearchNS+IdleNS sum,
	// breaking the accounting partition the report promises.
	wall := nowNS() - r.startNS
	// Flush submissions that no worker will ever pick up, every shard, until
	// every reservation is back. The gate is closed, so no new reservation
	// can be made; a producer that reserved before the close is still
	// pushing, and its push cannot fail, so a sweep that pops nothing only
	// has to yield to it.
	for {
		popped := false
		for _, w := range r.workerList {
			for t := r.popShard(w); t != nil; t = r.popShard(w) {
				popped = true
				if t.onDone != nil {
					t.onDone()
				}
			}
		}
		if r.gate.reserved() <= 0 {
			break
		}
		if !popped {
			runtime.Gosched()
		}
	}
	return r.buildReport(wall), nil
}

// backlogTotal is the submitted-but-unstarted job count: the sum of
// shard depths, each a racy-but-recent snapshot that is individually
// non-negative.
func (r *Runtime) backlogTotal() int64 {
	var t int64
	for _, w := range r.workerList {
		t += int64(w.shard.Len())
	}
	return t
}

// injectedTotal counts job roots ever accepted by Submit/SubmitBatch:
// the sum of per-shard enqueue tickets (every accepted job is pushed into
// exactly one shard, exactly once).
func (r *Runtime) injectedTotal() int64 {
	var t int64
	for _, w := range r.workerList {
		t += int64(w.shard.Pushes())
	}
	return t
}

// VerifySubmitLedger audits the submission gate of a shut-down persistent
// runtime (see gate.audit): the flush must have emptied the shards and
// every reserved unit of SubmitQueueCap must be back exactly once. The
// chaos harness calls this after every runtime scenario; it returns nil on
// batch-mode runtimes, which have no submission gate.
func (r *Runtime) VerifySubmitLedger() error {
	if !r.persistent {
		return nil
	}
	if !r.gate.closed() {
		return errors.New("wsrt: submit-ledger audit requires a shut-down runtime")
	}
	if n := r.backlogTotal(); n != 0 {
		return fmt.Errorf("wsrt: submit gate: %d jobs still queued after the shutdown flush", n)
	}
	return r.gate.audit()
}

// launch starts every worker goroutine (granted ones active, the rest
// parked) and the estimation helper.
func (r *Runtime) launch(persistent bool) {
	r.persistent = persistent
	r.startNS = nowNS()
	granted := r.mgr.Current()
	r.recordTimeline(granted.Size())
	for _, w := range r.workerList {
		w.pickup = persistent
		if granted.Contains(w.id) {
			w.state.Store(stateActive)
		} else {
			w.state.Store(stateParked)
		}
		r.wg.Add(1)
		go w.loop()
	}
	r.stopHelper = make(chan struct{})
	r.helperDone = make(chan struct{})
	if r.ctrl != nil {
		go func() {
			defer close(r.helperDone)
			r.helperLoop(r.stopHelper)
		}()
	} else {
		close(r.helperDone)
	}
}

// teardown stops the helper and every worker and waits for them.
func (r *Runtime) teardown() {
	if r.ctrl != nil {
		close(r.stopHelper)
	}
	<-r.helperDone
	for _, w := range r.workerList {
		w.stop()
	}
	r.wg.Wait()
}

// buildReport assembles the final accounting after all workers stopped.
func (r *Runtime) buildReport(wall int64) *Report {
	rep := &Report{
		WallNS:    wall,
		Workers:   map[topo.CoreID]*WorkerReport{},
		Timeline:  &r.timeline,
		Decisions: r.ctrl.Decisions(),
	}
	r.tlMu.Lock()
	rep.MaxWorkers = r.timeline.Max()
	r.tlMu.Unlock()
	for _, w := range r.workerList {
		if w.stats.Tasks == 0 && w.stats.FailedProbes == 0 {
			continue
		}
		ws := w.stats
		rep.Workers[w.id] = &ws
	}
	return rep
}

// AllotmentSize returns the current granted allotment size.
func (r *Runtime) AllotmentSize() int { return int(r.allotSize.Load()) }

// IdleStats reports the cumulative park and wakeup counts of the
// event-driven idle path (the same values metrics export as
// palirria_parks_total and palirria_wakeups_total).
func (r *Runtime) IdleStats() (parks, wakeups int64) {
	return r.parks.Load(), r.wakeups.Load()
}

// Capacity returns the largest allotment size currently grantable: the
// topology maximum clamped by any dynamic worker cap.
func (r *Runtime) Capacity() int { return r.mgr.EffectiveMaxWorkers() }

// SetMaxWorkers imposes (n > 0) or lifts (n <= 0) a dynamic worker-count
// cap on future grants — the hook the multiprogramming arbiter uses to
// redistribute cores between resident runtimes. Zone granularity applies;
// see sysched.Manager.SetWorkerCap.
func (r *Runtime) SetMaxWorkers(n int) { r.mgr.SetWorkerCap(n) }
