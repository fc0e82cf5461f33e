// Package wsrt is a real goroutine-based WOOL-style work-stealing runtime
// with adaptive allotments: the counterpart of the paper's Linux
// implementation, where the simulator package is the counterpart of its
// Barrelfish/Simics one.
//
// Workers are goroutines locked to OS threads (and, on Linux, best-effort
// pinned to cores with sched_setaffinity), each owning a lock-free
// Chase-Lev deque. The programming model is WOOL's: Spawn places a
// stealable task in the owner's queue, Sync joins the youngest outstanding
// spawn — popping and inlining it when it was not stolen, leapfrog-stealing
// while waiting when it was. Victim selection is pluggable (DVS or
// random), and a helper goroutine drives a core.Controller once per
// quantum, growing and shrinking the allotment zone by zone through
// sysched.Manager, with removed workers draining exactly as §4.1.1
// prescribes.
//
// Caveat (from the reproduction calibration): Go's own scheduler sits
// under the workers, so wall-clock results are noisier than the paper's
// pthread runtime and far noisier than the deterministic simulator. The
// benchmark harness therefore uses the simulator; this package exists to
// demonstrate — and test — the algorithms on real parallelism.
package wsrt

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/deque"
	"palirria/internal/dvs"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/sysched"
	"palirria/internal/topo"
	"palirria/internal/trace"
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

// QuantumInfo is the per-quantum digest handed to Config.OnQuantum: the
// estimator's desire before and after the false-positive filter, what the
// system layer actually granted, and the largest grant currently possible.
// Serving layers use it for admission control — a filtered desire pinned
// at Capacity is the estimator saying "this machine is saturated".
type QuantumInfo struct {
	// Time is nanoseconds since the runtime started.
	Time int64
	// Raw and Filtered are the desired worker counts before and after the
	// false-positive filter.
	Raw, Filtered int
	// Granted is the allotment size after this quantum's grant.
	Granted int
	// Capacity is the largest allotment size currently grantable (topology
	// maximum clamped by any dynamic worker cap).
	Capacity int
}

// Config describes a runtime instance.
type Config struct {
	// Mesh is the virtual topology workers are laid out on; defaults to a
	// 1xN mesh over GOMAXPROCS cores.
	Mesh *topo.Mesh
	// Source is the core the root task starts on (default: first usable).
	Source topo.CoreID
	// InitialDiaspora sets the starting allotment (default 1).
	InitialDiaspora int
	// MaxDiaspora caps growth (default: mesh maximum).
	MaxDiaspora int
	// Policy selects victim selection: "dvs" (default) or "random".
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
	// drop-newest ring (safe under concurrent draining). Create it with
	// obs.NewTracer(obs.WithTicksPerMicro(1000)) — timestamps are wall
	// nanoseconds relative to Run's start. Nil disables tracing; the
	// disabled hot path is one nil comparison per event site.
	Tracer *obs.Tracer
	// Introspect records a per-quantum obs.EstimatorSnapshot into Tracer
	// (requires Tracer and an Estimator).
	Introspect bool
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
	// quantum's grant with that quantum's digest. It runs on the helper
	// goroutine and must be fast and non-blocking.
	OnQuantum func(QuantumInfo)
	// SubmitQueueCap bounds the persistent-mode submission backlog (default
	// 64): the aggregate number of submitted-but-unstarted job roots across
	// all per-worker injection shards. Irrelevant for batch Run.
	SubmitQueueCap int

	// Events, when set, streams scheduler events onto the hub: a
	// background pump drains the obs rings every few milliseconds and
	// republishes selected kinds as stream.KindSched events. Workers keep
	// their allocation-free ring emission; a nil hub leaves every hot path
	// exactly as before. If Tracer is nil the runtime creates a private
	// one (modest 4K rings) to feed the pump; if a Tracer is supplied the
	// pump takes over its ring consumption — do not also call
	// Tracer.Drain for trace export on the same run.
	Events *stream.Hub
	// EventLabel is stamped into Event.Pool on pumped events (the serving
	// layer sets it to the pool name).
	EventLabel string
	// EventKinds selects which obs ring kinds the pump forwards (default
	// stream.DefaultPumpKinds: grant, retire, park).
	EventKinds []obs.Kind
}

// WorkerReport is one worker's accounting, in nanoseconds where the
// simulator reports cycles.
type WorkerReport struct {
	// UsefulNS is time spent executing task bodies. Nested task execution
	// (Sync inlining, leapfrog steals) is attributed to exactly one task,
	// so UsefulNS + SearchNS + IdleNS never exceeds the worker's wall time.
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
	Timeline *trace.Timeline
	// Decisions logs the estimator's quanta.
	Decisions *trace.Log
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

	workers map[topo.CoreID]*worker
	// workerList is the same set in core-id order, for lock-free iteration
	// on paths that want a stable order (shard scans, the shutdown flush,
	// the seal barrier — lock order matters there).
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

	// persistent-mode state: job roots enter through per-worker injection
	// shards (worker.shard) instead of one global funnel; closed flips once
	// at Shutdown.
	//
	// SubmitQueueCap is enforced by a striped reservation ledger instead
	// of one aggregate counter. Every unit of the cap lives in exactly one
	// of three places at any instant: the global slack pool (capFree), a
	// shard's cached credit cell (shard.CreditBalance), or an outstanding
	// reservation backing a queued job. Producers claim units through a
	// bounded ladder (reserveUpTo: shard-local credit, then a batched
	// refill from capFree, then scavenging sibling credit caches) and every
	// transfer removes from the source before adding to the destination, so
	// the sum of all three never exceeds the cap — SubmitQueueCap stays a
	// provable cross-shard bound while producers on different shards stop
	// sharing a cache line. Consumers release a unit for every shard pop
	// (releaseSlot), tying release 1:1 to a successful Pop: the ring
	// hands each element to exactly one popper, so double-release is
	// structurally impossible no matter how rescue scans and the shutdown
	// flush interleave. Every shard's ring is at least SubmitQueueCap deep,
	// so a push after a successful reservation cannot fail; the scan
	// fallback in pushAny is belt-and-braces.
	//
	// The per-worker seal locks (worker.seal) compose the closed check
	// with the shard push: Submit holds its picked shard's read side
	// across both, Shutdown flips closed and then takes every write side
	// once (the seal barrier), so by the time Shutdown's post-quiesce
	// flush runs, every Submit that returned nil has finished publishing
	// into its shard and every later Submit observes ErrClosed — no job
	// can land in a shard after the flush and be silently lost. Splitting
	// the old global sealMu per worker removes the last producer-shared
	// cache line from the submit fast path.
	persistent bool
	closed     atomic.Bool
	stopHelper chan struct{}
	helperDone chan struct{}

	// capFree is the global slack pool of the striped ledger: cap units
	// not cached on any shard and not backing a queued job. Padded so the
	// refill/overflow traffic cannot false-share with the read-mostly
	// fields around it.
	_       [64]byte
	capFree atomic.Int64
	_       [56]byte
	// creditCap bounds how much credit a release parks on one shard
	// before overflowing to capFree (read-only after New): low enough
	// that credit cannot strand on cold shards and starve producers, high
	// enough that a loaded shard refills rarely.
	creditCap int64

	timeline  trace.Timeline
	decisions trace.Log
	tlMu      sync.Mutex
	startNS   int64

	// helperRing carries the helper goroutine's grant/quantum events;
	// allotSize and quanta back the live metrics gauges.
	helperRing *obs.Ring
	// pump republishes ring events on cfg.Events (nil without a hub).
	pump      *stream.Pump
	allotSize atomic.Int64
	quanta    atomic.Int64

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
	if cfg.InitialDiaspora == 0 {
		cfg.InitialDiaspora = 1
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
	if cfg.Events != nil && cfg.Tracer == nil {
		// The stream pump sources from obs rings; give it private,
		// modestly-sized ones when the caller didn't ask for tracing.
		cfg.Tracer = obs.NewTracer(obs.WithRingCap(4096), obs.WithTicksPerMicro(1000))
	}
	opts := []sysched.Option{sysched.WithInitialDiaspora(cfg.InitialDiaspora)}
	if cfg.MaxDiaspora > 0 {
		opts = append(opts, sysched.WithMaxDiaspora(cfg.MaxDiaspora))
	}
	mgr, err := sysched.NewManager(cfg.Mesh, cfg.Source, opts...)
	if err != nil {
		return nil, err
	}
	r := &Runtime{
		cfg:      cfg,
		mesh:     cfg.Mesh,
		mgr:      mgr,
		workers:  make(map[topo.CoreID]*worker),
		rootDone: make(chan struct{}),
	}
	if cfg.Estimator != nil {
		r.ctrl = core.NewController(cfg.Estimator)
	}
	// Create a worker for every usable core; activate the initial set.
	for id := topo.CoreID(0); int(id) < r.mesh.NumCores(); id++ {
		if r.mesh.Reserved(id) {
			continue
		}
		w := newWorker(r, id)
		if cfg.Tracer != nil {
			w.ring = cfg.Tracer.NewRing(false)
			cfg.Tracer.SetWorkerName(int32(id), fmt.Sprintf("core %d", id))
		}
		r.workers[id] = w
		r.workerList = append(r.workerList, w)
	}
	r.byID = make([]*worker, r.mesh.NumCores())
	for _, w := range r.workerList {
		r.byID[w.id] = w
	}
	// The whole cap starts in the global slack pool; shard credit caches
	// fill lazily as producers refill and consumers release. creditCap
	// splits the cap across the shards with headroom (half the even share,
	// floor 2): a release never strands more than creditCap units on an
	// idle shard, and scavenging visits every shard, so a producer fails
	// only when the cap is genuinely exhausted.
	r.capFree.Store(int64(cfg.SubmitQueueCap))
	r.creditCap = 2
	if n := int64(2 * len(r.workerList)); n > 0 {
		if c := int64(cfg.SubmitQueueCap) / n; c > r.creditCap {
			r.creditCap = c
		}
	}
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
			for _, w := range r.workers {
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
	reg.GaugeFunc("palirria_submit_slack", "Unreserved submission-backlog capacity (global pool plus per-shard credit caches).",
		func() float64 {
			t := float64(r.capFree.Load())
			for _, w := range r.workerList {
				t += float64(w.shard.CreditBalance())
			}
			return t
		}, base...)
	for id, w := range r.workers {
		w := w
		lbls := append(append([]obs.Label(nil), base...), obs.Label{Key: "core", Value: fmt.Sprint(id)})
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

// policyBundle pairs the victim policy over the resident set with its
// reverse steal graph: thieves[v] lists the workers that have v on their
// victim list. Producers use it to wake an idle thief after making work
// visible in v's deque. members is the granted set in Members() order —
// the shard-choice population for Submit, so injected jobs only target
// workers that are actually serving. All fields are immutable once the
// bundle is stored, so readers never take a lock.
type policyBundle struct {
	policy  dvs.Policy
	thieves map[topo.CoreID][]*worker
	members []*worker
}

func (r *Runtime) loadPolicy() *policyBundle {
	b, _ := r.policy.Load().(*policyBundle)
	return b
}

// rebuildPolicy installs victim lists over the resident set (granted plus
// draining workers). It is called by the helper after every allotment
// change and by a draining worker when it retires, so stale wake-graph
// edges to retired workers are purged as soon as they stop stealing
// rather than lingering until the next grant. Callers race; the mutex
// serializes the stores and the granted allotment is loaded inside the
// critical section, so the last rebuild to run always reflects the
// freshest grant — a retirement rebuild can never resurrect a policy
// built from an allotment the helper has already replaced.
func (r *Runtime) rebuildPolicy() {
	r.policyMu.Lock()
	defer r.policyMu.Unlock()
	granted := r.grantedA.Load()
	var extra []topo.CoreID
	for id, w := range r.workers {
		if w.state.Load() == stateDraining && !granted.Contains(id) {
			extra = append(extra, id)
		}
	}
	resident := granted
	if len(extra) > 0 {
		cores := append(append([]topo.CoreID(nil), granted.Members()...), extra...)
		if a, err := topo.NewAllotmentFromCores(r.mesh, granted.Source(), cores); err == nil {
			resident = a
		}
	}
	var p dvs.Policy
	if r.cfg.Policy == "random" {
		p = dvs.NewRandom(resident, r.cfg.Seed)
	} else {
		p = dvs.New(topo.Classify(resident))
	}
	// Reverse the victim lists into a wake graph. The bundle is built
	// before it is published, so probing Victims here cannot race worker
	// calls (the random policy's per-worker streams are not shared until
	// the Store).
	thieves := make(map[topo.CoreID][]*worker, len(r.workers))
	for _, id := range resident.Members() {
		tw := r.workers[id]
		if tw == nil {
			continue
		}
		for _, v := range p.Victims(id) {
			thieves[v] = append(thieves[v], tw)
		}
	}
	// Shard-choice population: granted workers only. Draining extras keep
	// stealing but must not receive fresh injected jobs — they are on
	// their way out.
	members := make([]*worker, 0, granted.Size())
	for _, id := range granted.Members() {
		if w := r.workers[id]; w != nil {
			members = append(members, w)
		}
	}
	r.policy.Store(&policyBundle{policy: p, thieves: thieves, members: members})
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
	r.workers[r.cfg.Source].deque.PushBottom(rootTask) // empty deque: cannot be full
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

// Submit enqueues fn as a new job root; an idle active worker picks it up
// (the paper's serving scenario: independent requests entering a resident
// allotment). onDone, if non-nil, fires after the job and all of its
// spawns complete. Submit never blocks: when the bounded submission
// backlog (SubmitQueueCap, aggregated across all injection shards) is
// saturated it returns ErrSubmitQueueFull and the caller applies its own
// backpressure policy.
//
// The job lands in one granted worker's injection shard, chosen by a
// per-producer round-robin cursor with power-of-two-choices on shard
// depth, and the wakeup targets that shard's owner — producers on
// different cores touch different shards instead of contending on one
// global funnel.
//
// Submit is safe to call concurrently with Shutdown: the closed check and
// the shard push are composed under the picked shard's seal lock, so a
// Submit either returns ErrClosed or its job is observed by Shutdown's
// flush — a nil return always means onDone will fire exactly once, either
// because the job ran or because the shutdown flush discarded it.
func (r *Runtime) Submit(fn Func, onDone func()) error {
	return r.SubmitJob(Job{Fn: fn, OnDone: onDone})
}

// SubmitJob is Submit with the full Job record: in addition to OnDone it
// honours OnTerminal, which fires exactly once after OnDone with the
// job's terminal disposition — ran=true when the root executed, ran=false
// when the shutdown flush discarded it unrun. The serving layer's DAG
// dependency ledger releases successor nodes from this hook.
func (r *Runtime) SubmitJob(j Job) error {
	if !r.persistent {
		return ErrNotPersistent
	}
	w := r.pickShard(r.loadPolicy())
	w.seal.RLock()
	if r.closed.Load() {
		w.seal.RUnlock()
		return ErrClosed
	}
	if r.reserveUpTo(w, 1) == 0 {
		w.seal.RUnlock()
		return ErrSubmitQueueFull
	}
	t := &rtTask{fn: j.Fn, onDone: j.OnDone, onTerm: j.OnTerminal}
	target := w
	if !w.shard.Push(t) {
		// Cannot happen by construction (every ring is at least
		// SubmitQueueCap deep and a reservation was claimed), but a scan
		// beats a lost job if the sizing invariant is ever broken.
		if target = r.pushAny(t); target == nil {
			w.shard.Refund(1)
			w.seal.RUnlock()
			return ErrSubmitQueueFull
		}
	}
	w.seal.RUnlock()
	r.wakeForInject(target)
	return nil
}

// Job is one SubmitBatch entry: a job root plus its completion callback,
// with exactly Submit's semantics per entry.
type Job struct {
	// Fn is the job root.
	Fn Func
	// OnDone, if non-nil, fires exactly once after the job and all of its
	// spawns complete (or when the shutdown flush discards the job).
	OnDone func()
	// OnTerminal, if non-nil, fires exactly once after OnDone with the
	// job's disposition: ran=true when the root executed to completion,
	// ran=false when the shutdown flush discarded it unrun.
	OnTerminal func(ran bool)
}

// submitBatchChunk is how many jobs one SubmitBatch iteration reserves
// and publishes against a single shard: large enough to amortize the
// reservation ladder to roughly one walk per eight jobs, small enough
// that a burst still spreads over several shards for parallel pickup.
const submitBatchChunk = 8

// SubmitBatch enqueues several job roots, reserving backlog capacity once
// per chunk per shard (instead of one reservation per job) and coalescing
// wakeups to at most one per touched shard — the amortization that makes
// wave-shaped open-loop load (cmd/palirria-load) cheap. Acceptance is a
// prefix: the first n jobs were enqueued and carry Submit's exactly-once
// onDone guarantee; jobs[n:] were not touched. err is nil when every job
// was accepted, ErrClosed after Shutdown, or ErrSubmitQueueFull when the
// aggregate backlog bound filled mid-batch. Because the batch publishes
// chunk by chunk, a Shutdown racing the batch can seal it mid-way:
// ErrClosed, like ErrSubmitQueueFull, may be returned with n > 0 and the
// accepted prefix is then on the books (their onDone fire via the
// shutdown flush).
func (r *Runtime) SubmitBatch(jobs []Job) (n int, err error) {
	if !r.persistent {
		return 0, ErrNotPersistent
	}
	if len(jobs) == 0 {
		return 0, nil
	}
	b := r.loadPolicy()
	var touchedBuf [8]*worker
	touched := touchedBuf[:0]
	for n < len(jobs) && err == nil {
		w := r.pickShard(b)
		w.seal.RLock()
		if r.closed.Load() {
			w.seal.RUnlock()
			err = ErrClosed
			break
		}
		want := int64(len(jobs) - n)
		if want > submitBatchChunk {
			want = submitBatchChunk
		}
		got := int(r.reserveUpTo(w, want))
		if got == 0 {
			w.seal.RUnlock()
			err = ErrSubmitQueueFull
			break
		}
		for i := 0; i < got; i++ {
			t := &rtTask{fn: jobs[n].Fn, onDone: jobs[n].OnDone, onTerm: jobs[n].OnTerminal}
			pw := w
			if !w.shard.Push(t) {
				// Cannot happen by construction; see Submit.
				if pw = r.pushAny(t); pw == nil {
					w.shard.Refund(int64(got - i))
					err = ErrSubmitQueueFull
					break
				}
			}
			n++
			touched = addTouched(touched, pw)
		}
		w.seal.RUnlock()
	}
	for _, tw := range touched {
		r.wakeForInject(tw)
	}
	return n, err
}

// addTouched appends w to the wake-dedup list unless already present.
func addTouched(ws []*worker, w *worker) []*worker {
	for _, o := range ws {
		if o == w {
			return ws
		}
	}
	return append(ws, w)
}

// Reservation-ladder tuning.
const (
	// reserveRetries bounds the CAS attempts against the global slack
	// pool. A producer racing 63 others at the cap boundary loses at most
	// this many races before degrading to a single wait-free claim and,
	// failing that, to ErrSubmitQueueFull — the submit path cannot
	// livelock (TestSubmitNoLivelockAtCap).
	reserveRetries = 4
	// creditBatch is the extra slack a refill pulls beyond the immediate
	// need, caching it on the producer's shard so subsequent Submits
	// reserve locally without touching the global pool.
	creditBatch = 8
)

// reserveUpTo claims up to want backlog units for pushes into w's shard,
// returning how many were claimed (0 when the cap is saturated). The
// ladder: the shard's own credit cache (one CAS on an uncontended line),
// a batched refill from the global slack pool, then scavenging credit
// cached on sibling shards (one CAS attempt each). Every rung is bounded
// and every transfer removes from its source before adding anywhere, so
// the cap bound holds at every instant and a producer can never spin
// unboundedly. In the absence of concurrent producers the ladder is
// exhaustive — it finds every free unit in the system — which keeps
// SubmitQueueCap an exact capacity, not merely an upper bound.
func (r *Runtime) reserveUpTo(w *worker, want int64) int64 {
	got := w.shard.TryReserve(want)
	if got == want {
		return got
	}
	got += r.refillReserve(w, want-got)
	if got == want {
		return got
	}
	got += r.scavengeReserve(w, want-got)
	return got
}

// refillReserve claims up to need units from the global slack pool,
// pulling a bounded batch of extra credit onto w's shard while it is
// there. The CAS loop is bounded; past it, one wait-free Add claims a
// single unit or undoes itself.
func (r *Runtime) refillReserve(w *worker, need int64) int64 {
	for try := 0; try < reserveRetries; try++ {
		free := r.capFree.Load()
		if free <= 0 {
			return 0
		}
		take := need
		if extra := free / 2; extra > 0 {
			if extra > creditBatch {
				extra = creditBatch
			}
			take += extra
		}
		if take > free {
			take = free
		}
		if r.capFree.CompareAndSwap(free, free-take) {
			if take > need {
				w.shard.Refund(take - need)
				return need
			}
			return take
		}
	}
	// Contended past the retry bound: claim one unit wait-free. A
	// negative result means the pool was empty; undo and give up — the
	// caller falls through to scavenging, then to ErrSubmitQueueFull.
	if r.capFree.Add(-1) >= 0 {
		return 1
	}
	r.capFree.Add(1)
	return 0
}

// scavengeReserve pulls credit cached on sibling shards, one bounded
// attempt per shard, refunding any excess to w's shard.
func (r *Runtime) scavengeReserve(w *worker, need int64) int64 {
	var got int64
	for _, v := range r.workerList {
		if v == w {
			continue
		}
		if c := v.shard.StealCredit(); c > 0 {
			got += c
			if got >= need {
				break
			}
		}
	}
	if got > need {
		w.shard.Refund(got - need)
		return need
	}
	return got
}

// releaseSlot returns one reservation unit after a successful pop from
// shard s. Release is tied 1:1 to Pop — the ring hands each element to
// exactly one popper — so no interleaving of owner drains, sibling
// rescues, and the shutdown flush can release a unit twice (the old
// aggregate counter relied on every pop site pairing its decrement
// correctly; here the pairing is structural). The unit lands on the
// popped shard's credit cache unless that cache is already rich, in
// which case it overflows to the global pool so cold shards cannot hoard
// the cap.
func (r *Runtime) releaseSlot(s *deque.Shard[rtTask]) {
	if s.CreditBalance() >= r.creditCap {
		r.capFree.Add(1)
		return
	}
	s.Refund(1)
}

// pickShard chooses the injection shard for one job: two candidates over
// the granted members, keeping the shallower (power-of-two-choices).
// rand/v2 draws from a per-P generator, so producers share no cursor state
// at all — the old sync.Pool round-robin cursor cost a pool round-trip per
// Submit and was the second-largest submit-path serialization after the
// aggregate counter.
//
// Bounded staleness of the depth comparison: Shard.Len is racy-but-recent
// — each load is a linearizable read of the ring's enq-deq counters, so
// by the time the push lands the depths may have moved by whatever pushes
// and pops overlapped this Submit, and the "shallower" pick is only
// statistically shallower, not instantaneously so. That is the contract
// p2c needs: correctness never depends on depth (capacity is enforced by
// the reservation ledger, and a push after a successful reservation
// cannot fail), depth only steers placement, and steering only requires
// the comparison to be right on average (TestPickShardPrefersShallower
// pins that; the adversarial interleavings belong to the cap-invariant
// property test).
func (r *Runtime) pickShard(b *policyBundle) *worker {
	var ms []*worker
	if b != nil {
		ms = b.members
	}
	if len(ms) == 0 {
		ms = r.workerList // pre-first-rebuild or degenerate grant
	}
	if len(ms) == 1 {
		return ms[0]
	}
	return pickP2C(ms)
}

// pickP2C draws one 64-bit word and takes two uniform candidates from ms
// (power-of-two-choices), keeping the shallower shard. Indices come from
// Lemire's multiply-shift reduction of each 32-bit half — exact
// uniformity for any slice length, where the old modulo reduction skewed
// low indices on non-power-of-two member counts (the skew scales with
// n/2^32, invisible at small n but a standing thumb on the scale against
// the depth signal). ms must be non-empty; a duplicate pair is harmless.
func pickP2C(ms []*worker) *worker {
	seq := rand.Uint64()
	n := uint64(len(ms))
	w := ms[uint32((uint64(uint32(seq))*n)>>32)]
	if a := ms[uint32(((seq>>32)*n)>>32)]; a.shard.Len() < w.shard.Len() {
		w = a
	}
	return w
}

// pushAny publishes t into the first shard with room: the current
// bundle's granted members first (in grant order), every other worker —
// revoked or never-granted — only after. A revoked worker's shard is a
// valid overflow target of last resort (its jobs are still rescued via
// takeSibling's full scan), but landing there means waiting for a rescue
// sweep instead of the owner's next loop, so it must not shadow a granted
// shard with room (TestPushAnyPrefersGrantedMembers).
func (r *Runtime) pushAny(t *rtTask) *worker {
	var ms []*worker
	if b := r.loadPolicy(); b != nil {
		ms = b.members
	}
	for _, w := range ms {
		if w.shard.Push(t) {
			return w
		}
	}
	for _, w := range r.workerList {
		if isMember(ms, w) {
			continue
		}
		if w.shard.Push(t) {
			return w
		}
	}
	return nil
}

// isMember reports whether w is in ms (member lists are a handful of
// entries; a linear scan beats any map on this path).
func isMember(ms []*worker, w *worker) bool {
	for _, m := range ms {
		if m == w {
			return true
		}
	}
	return false
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
	if !r.closed.CompareAndSwap(false, true) {
		return nil, ErrClosed
	}
	// Seal barrier: every Submit holds its picked shard's seal read lock
	// from the closed check through the publish (including a pushAny
	// redirect into any other shard), so holding every write lock once
	// waits out all in-flight producers, and producers that arrive later
	// observe closed first. After the barrier the submission path is
	// quiescent for good: every Submit that will ever return nil has
	// finished publishing into its shard.
	r.sealAll()
	r.unsealAll()
	r.finished.Store(true)
	r.teardown()
	// Wall clock is captured after quiesce: workers keep accruing IdleNS
	// until their stop token lands, so a wall captured before teardown
	// could be exceeded by a worker's UsefulNS+SearchNS+IdleNS sum,
	// breaking the accounting partition the report promises.
	wall := nowNS() - r.startNS
	// Flush submissions that no worker will ever pick up — every shard,
	// not just the one the last submitter touched. Workers exited in
	// teardown and the path is sealed, so this drain observes every job
	// ever admitted and still unrun. Each pop releases its reservation
	// like any consumer pop would, so the ledger balances afterwards
	// (VerifySubmitLedger).
	for _, w := range r.workerList {
		for {
			t, ok := w.shard.Pop()
			if !ok {
				break
			}
			r.releaseSlot(w.shard)
			if t.onDone != nil {
				t.onDone()
			}
			if t.onTerm != nil {
				t.onTerm(false)
			}
		}
	}
	return r.buildReport(wall), nil
}

// sealAll acquires every worker's seal write lock in workerList order —
// the single seal lock order in the package. Shutdown's barrier and the
// cap-invariant test sampler both go through here, so they cannot
// deadlock against each other.
func (r *Runtime) sealAll() {
	for _, w := range r.workerList {
		w.seal.Lock()
	}
}

// unsealAll releases the locks sealAll took.
func (r *Runtime) unsealAll() {
	for _, w := range r.workerList {
		w.seal.Unlock()
	}
}

// backlogTotal is the submitted-but-unstarted job count: the sum of
// shard depths. Each term is a racy-but-recent snapshot that is
// individually non-negative, so the palirria_submit_backlog gauge is
// structurally incapable of going negative — a property the old
// aggregate counter kept only as long as every pop site paired its
// decrement exactly once.
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

// VerifySubmitLedger audits the striped reservation ledger of a shut-down
// persistent runtime: the shards must be empty (the flush drained them)
// and every unit of SubmitQueueCap must be back in exactly one place —
// the global slack pool or a shard's credit cache. A non-nil error means
// a reservation leaked (capacity quietly shrank: eventual spurious
// ErrSubmitQueueFull) or was double-released (the cap bound went soft).
// The chaos harness calls this after every runtime scenario; it returns
// nil on batch-mode runtimes, which have no submission ledger.
func (r *Runtime) VerifySubmitLedger() error {
	if !r.persistent {
		return nil
	}
	if !r.closed.Load() {
		return errors.New("wsrt: submit-ledger audit requires a shut-down runtime")
	}
	free := r.capFree.Load()
	if free < 0 {
		return fmt.Errorf("wsrt: submit ledger: global slack pool is negative (%d)", free)
	}
	var credits, backlog int64
	for _, w := range r.workerList {
		c := w.shard.CreditBalance()
		if c < 0 {
			return fmt.Errorf("wsrt: submit ledger: shard %d credit is negative (%d)", w.id, c)
		}
		credits += c
		backlog += int64(w.shard.Len())
	}
	if backlog != 0 {
		return fmt.Errorf("wsrt: submit ledger: %d jobs still queued after the shutdown flush", backlog)
	}
	if limit := int64(r.cfg.SubmitQueueCap); free+credits != limit {
		return fmt.Errorf("wsrt: submit ledger unbalanced: free %d + shard credits %d != cap %d", free, credits, limit)
	}
	return nil
}

// launch starts every worker goroutine (granted ones active, the rest
// parked) and the estimation helper.
func (r *Runtime) launch(persistent bool) {
	r.persistent = persistent
	r.startNS = nowNS()
	granted := r.mgr.Current()
	r.recordTimeline(granted.Size())
	for _, w := range r.workers {
		w.pickup = persistent
		if granted.Contains(w.id) {
			w.state.Store(stateActive)
		} else {
			w.state.Store(stateParked)
		}
		r.wg.Add(1)
		go w.loop()
	}
	if r.cfg.Events != nil {
		r.pump = stream.NewPump(r.cfg.Events, r.cfg.Tracer, stream.PumpConfig{
			Label:  r.cfg.EventLabel,
			Kinds:  r.cfg.EventKinds,
			BaseNS: r.startNS,
		})
		r.pump.Start()
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
	for _, w := range r.workers {
		w.stop()
	}
	r.wg.Wait()
	if r.pump != nil {
		// Workers are quiescent: the pump's final drain flushes every
		// remaining ring event onto the hub before teardown returns.
		r.pump.Stop()
		r.pump = nil
	}
}

// buildReport assembles the final accounting after all workers stopped.
func (r *Runtime) buildReport(wall int64) *Report {
	rep := &Report{
		WallNS:    wall,
		Workers:   map[topo.CoreID]*WorkerReport{},
		Timeline:  &r.timeline,
		Decisions: &r.decisions,
	}
	r.tlMu.Lock()
	rep.MaxWorkers = r.timeline.Max()
	r.tlMu.Unlock()
	for id, w := range r.workers {
		if w.stats.Tasks == 0 && w.stats.FailedProbes == 0 {
			continue
		}
		ws := w.stats
		rep.Workers[id] = &ws
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

func (r *Runtime) recordTimeline(workers int) {
	r.tlMu.Lock()
	defer r.tlMu.Unlock()
	t := nowNS() - r.startNS
	if t < 0 {
		t = 0
	}
	r.timeline.Record(t, workers)
}

// helperLoop is the system-level helper thread: it evaluates the estimator
// every quantum and applies allotment changes in the background.
func (r *Runtime) helperLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(r.cfg.Quantum)
	defer ticker.Stop()
	lastWasted := map[topo.CoreID]int64{}
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if r.finished.Load() {
			return
		}
		granted := r.mgr.Current()
		class := topo.Classify(granted)
		snaps := make(map[topo.CoreID]*core.WorkerSnapshot, granted.Size())
		for _, id := range granted.Members() {
			w := r.workers[id]
			// Wasted effort is search plus parked time: the estimators'
			// WastedCycles semantics predate event-driven parking, and a
			// parked worker is exactly as wasted as a probing one — it just
			// no longer burns a core to prove it.
			total := atomic.LoadInt64(&w.stats.SearchNS) + atomic.LoadInt64(&w.stats.IdleNS)
			delta := total - lastWasted[id]
			lastWasted[id] = total
			snaps[id] = &core.WorkerSnapshot{
				ID:           id,
				QueueLen:     w.deque.Len(),
				MaxQueueLen:  int(w.hwm.Load()),
				Busy:         w.busy.Load(),
				WastedCycles: delta,
				Draining:     w.state.Load() == stateDraining,
			}
		}
		// The marks above belong to the window that just closed; open the
		// next one — workers reset their hwm on their first spawn under
		// the new sequence number.
		r.qseq.Add(1)
		snap := &core.Snapshot{
			Allotment:     granted,
			Class:         class,
			Workers:       snaps,
			QuantumCycles: int64(r.cfg.Quantum),
			Time:          nowNS() - r.startNS,
		}
		desired := r.ctrl.Step(snap)
		next, changed := r.mgr.Grant(desired)
		r.ctrl.Granted(next.Size())
		r.decisions.Add(trace.Decision{
			Time:      nowNS() - r.startNS,
			Estimator: r.ctrl.Est.Name(),
			Desired:   desired,
			Granted:   next.Size(),
		})
		r.quanta.Add(1)
		r.allotSize.Store(int64(next.Size()))
		if r.cfg.OnQuantum != nil {
			info := r.ctrl.Last()
			r.cfg.OnQuantum(QuantumInfo{
				Time:     nowNS() - r.startNS,
				Raw:      info.Raw,
				Filtered: info.Filtered,
				Granted:  next.Size(),
				Capacity: r.mgr.EffectiveMaxWorkers(),
			})
		}
		if r.helperRing != nil {
			ts := nowNS() - r.startNS
			r.helperRing.Emit(obs.Event{
				TS: ts, Kind: obs.KindQuantum,
				Worker: obs.NoWorker, Peer: obs.NoWorker, Arg: int64(desired),
			})
			// Every quantum, even unchanged: ring buffers keep only the
			// newest events, and the Chrome allotment counter track must
			// have samples inside whatever window survives.
			r.helperRing.Emit(obs.Event{
				TS: ts, Kind: obs.KindGrant,
				Worker: obs.NoWorker, Peer: obs.NoWorker, Arg: int64(next.Size()),
			})
			if r.cfg.Introspect {
				r.cfg.Tracer.RecordSnapshot(r.estimatorSnapshot(snap, granted.Size(), next.Size()))
			}
		}
		if !changed {
			continue
		}
		r.grantedA.Store(next)
		// Drain workers leaving the grant; activate workers entering it.
		for _, id := range granted.Members() {
			if !next.Contains(id) {
				w := r.workers[id]
				if w.state.CompareAndSwap(stateActive, stateDraining) {
					// A revoked worker may be blocked in idleWait; deliver a
					// token so it observes the drain now instead of at the
					// next unrelated wakeup.
					r.clearIdle(w)
					w.unpark()
				}
			}
		}
		for _, id := range next.Members() {
			w := r.workers[id]
			for {
				s := w.state.Load()
				if s == stateActive || s == stateStopped {
					break
				}
				if w.state.CompareAndSwap(s, stateActive) {
					w.unpark()
					break
				}
			}
		}
		r.rebuildPolicy()
		// Waiters may have parked against the old victim lists; wake them
		// all so they re-announce against the new ones (see wakeAllIdle).
		r.wakeAllIdle()
		r.recordTimeline(next.Size())
	}
}

// estimatorSnapshot builds the per-quantum introspection record: the
// controller's raw and filtered desire plus the estimator's annotated view
// when it implements core.Introspector.
func (r *Runtime) estimatorSnapshot(snap *core.Snapshot, prevSize, granted int) obs.EstimatorSnapshot {
	info := r.ctrl.Last()
	es := obs.EstimatorSnapshot{
		Time:           snap.Time,
		Estimator:      r.ctrl.Est.Name(),
		Allotment:      prevSize,
		Decision:       core.DecisionOf(prevSize, info.Raw).String(),
		RawDesire:      info.Raw,
		FilteredDesire: info.Filtered,
		Granted:        granted,
	}
	ip, ok := r.ctrl.Est.(core.Introspector)
	if !ok {
		return es
	}
	in := ip.Introspect(snap)
	es.Decision = in.Decision.String()
	es.Inputs = in.Inputs
	for _, iw := range in.Workers {
		es.Workers = append(es.Workers, obs.WorkerIntrospection{
			Worker:       int(iw.ID),
			Class:        iw.Class,
			QueueLen:     iw.QueueLen,
			MaxQueueLen:  iw.MaxQueueLen,
			ThresholdL:   iw.ThresholdL,
			Busy:         iw.Busy,
			Draining:     iw.Draining,
			WastedCycles: iw.WastedCycles,
		})
	}
	return es
}

// worker states.
const (
	stateParked int32 = iota
	stateActive
	stateDraining
	stateStopped
)

// worker is one work-stealing worker thread. Field layout is a deliberate
// padding audit: the owner-only hot section comes first, then a cache
// line of padding before the foreign-written flags (wakers CAS waiting,
// the helper flips state), then another before the producer-hammered seal
// lock — so a producer sealing a Submit or a waker delivering a token
// never invalidates the line the owner's inner loop is reading.
type worker struct {
	id    topo.CoreID
	rt    *Runtime
	deque *deque.ChaseLev[rtTask]
	// shard is the worker's external-injection queue: multi-producer
	// (Submit/SubmitBatch pick a shard per job), drained by the owner
	// first and by sibling thieves in DVS victim order. Sized at least
	// SubmitQueueCap so a push under a successful reservation never
	// fails.
	shard *deque.Shard[rtTask]
	parkC chan struct{}

	// pickup marks persistent-mode workers: when idle with nothing to
	// steal, they pull new job roots from the injection shards (their own
	// first, then siblings'). Written before the worker goroutine starts,
	// read only by it.
	pickup bool

	// hwmSeq is the quantum the hwm mark belongs to (owner-only — see
	// Runtime.qseq for the lazy reset protocol).
	hwmSeq int64
	// depth tracks runTask nesting (owner-only).
	depth int
	// victimBuf is the worker-owned scratch buffer VictimsInto fills, so
	// steal probes do zero heap allocations at steady state (owner-only).
	victimBuf []topo.CoreID
	// ctxFree recycles Ctx frames: runTask nests strictly, so a LIFO free
	// list bounds allocations by the deepest nesting seen (owner-only).
	ctxFree []*Ctx
	// excluded accumulates, within the innermost running task's window,
	// time that belongs to someone else: nested runTask spans and search
	// waits. runTask subtracts it so each nanosecond lands in exactly one
	// of UsefulNS / SearchNS / IdleNS (owner-only).
	excluded int64
	// spins counts consecutive failed sweeps toward the idleSpins budget
	// (owner-only).
	spins int
	// searchT0 is the start of the open search episode (0 = none) and
	// phaseTS the clock reading at the last phase boundary — the two
	// owner-only words behind the phase-boundary accounting that lets
	// back-to-back tasks pay a single clock read each (see runTask).
	searchT0 int64
	phaseTS  int64

	// ring records structured events when tracing is enabled (nil
	// otherwise). Only this worker's goroutine emits into it.
	ring *obs.Ring

	_ [64]byte // foreign-written flags below; owner-only loop state above

	state atomic.Int32
	// waiting is the worker's announced-idle flag: the prepare half of the
	// parking protocol (see idle.go). Set by the worker before it blocks,
	// CAS-consumed by exactly one waker (or the worker itself on wake).
	waiting atomic.Bool
	// hwm is the µ(Q) queue-length high-water mark of the worker's most
	// recent active quantum.
	hwm atomic.Int32
	// busy reports a task currently executing.
	busy atomic.Bool

	_ [52]byte // and the producer-side seal off the flags the owner writes

	// seal is this worker's stripe of the submission seal: producers hold
	// the read side across the closed check, the reservation, and the
	// shard push; Shutdown's barrier (and the cap-invariant test sampler)
	// write-locks every stripe in workerList order. Splitting the old
	// global sealMu per worker removes the last producer-shared cache
	// line from the submit fast path.
	seal sync.RWMutex

	_ [40]byte // and the owner-written stats off the seal's line

	stats WorkerReport
}

// noteSpawn folds a post-push queue length into the µ(Q) high-water mark,
// resetting it first when this is the worker's first spawn of the current
// estimation quantum (the lazy reset — see Runtime.qseq).
func (w *worker) noteSpawn(n int32) {
	if seq := w.rt.qseq.Load(); seq != w.hwmSeq {
		w.hwmSeq = seq
		w.hwm.Store(n)
		return
	}
	if n > w.hwm.Load() {
		w.hwm.Store(n)
	}
}

// addSearch charges dt nanoseconds of search time, excluding it from any
// enclosing task's useful window.
func (w *worker) addSearch(dt int64) {
	atomic.AddInt64(&w.stats.SearchNS, dt)
	w.excluded += dt
}

// openSearch starts a search episode anchored at the last phase boundary
// — the end of the last task or park — without reading the clock.
// Idempotent while an episode is open; runTask, idleWait, and parkBlocked
// close the episode with the single clock read they were doing anyway.
// Only the worker loop (depth 0) opens episodes; Sync's leapfrog stamps
// its probes explicitly because it runs inside a task window.
func (w *worker) openSearch() {
	if w.searchT0 == 0 {
		if w.phaseTS != 0 {
			w.searchT0 = w.phaseTS
		} else {
			w.searchT0 = nowNS()
		}
	}
}

// closeSearch ends an open search episode at now, charging it to
// SearchNS. No-op when no episode is open.
func (w *worker) closeSearch(now int64) {
	if w.searchT0 != 0 {
		w.addSearch(now - w.searchT0)
		w.searchT0 = 0
	}
}

// addIdle charges dt nanoseconds of parked time (always at depth 0).
func (w *worker) addIdle(dt int64) {
	atomic.AddInt64(&w.stats.IdleNS, dt)
	w.excluded += dt
}

// ctxGet pops a recycled Ctx or allocates the free list's first tenant.
func (w *worker) ctxGet() *Ctx {
	if n := len(w.ctxFree); n > 0 {
		c := w.ctxFree[n-1]
		w.ctxFree = w.ctxFree[:n-1]
		return c
	}
	return &Ctx{w: w}
}

// ctxPut returns a finished frame's Ctx to the free list.
func (w *worker) ctxPut(c *Ctx) {
	c.pending = c.pending[:0]
	w.ctxFree = append(w.ctxFree, c)
}

// emit records one structured event. The disabled path is a nil check.
func (w *worker) emit(k obs.Kind, peer int32, arg int64) {
	if w.ring == nil {
		return
	}
	w.ring.Emit(obs.Event{
		TS: nowNS() - w.rt.startNS, Kind: k,
		Worker: int32(w.id), Peer: peer, Arg: arg,
	})
}

func newWorker(r *Runtime, id topo.CoreID) *worker {
	return &worker{
		id:    id,
		rt:    r,
		deque: deque.MustChaseLev[rtTask](r.cfg.QueueCap),
		shard: deque.MustShard[rtTask](r.cfg.SubmitQueueCap),
		parkC: make(chan struct{}, 1),
	}
}

func (w *worker) unpark() {
	select {
	case w.parkC <- struct{}{}:
	default:
	}
}

func (w *worker) stop() {
	w.state.Store(stateStopped)
	w.rt.clearIdle(w)
	w.unpark()
}

// loop is the worker's main loop.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	if w.rt.cfg.Pin {
		runtime.LockOSThread()
		setAffinity(int(w.id))
		defer runtime.UnlockOSThread()
	}
	for {
		switch w.state.Load() {
		case stateStopped:
			return
		case stateParked:
			// Outside the allotment: block until a grant or stop delivers
			// a token (no timeout — both wake paths store their reason
			// before unparking, so a wake is never missed).
			w.parkBlocked()
			continue
		}
		if w.rt.finished.Load() {
			return
		}
		// Own queue first.
		if t, ok := w.deque.PopBottom(); ok {
			w.runTask(t)
			w.spins = 0
			continue
		}
		if w.state.Load() == stateDraining {
			// Removed and drained: the deque is empty (the owner is the
			// only pusher and its pop just failed, so any last task was
			// taken by a thief who will run it) — park until revoked or
			// stopped. Rebuild the policy so the worker's wake-graph and
			// victim entries are purged now: without it, producers would
			// keep probing the retiree's empty deque and offering it wake
			// tokens until the next unrelated allotment change.
			if w.state.CompareAndSwap(stateDraining, stateParked) {
				w.emit(obs.KindRetire, obs.NoWorker, 0)
				w.rt.rebuildPolicy()
			}
			continue
		}
		// Persistent mode: drain the worker's own injection shard before
		// sweeping victims — it is the work Submit explicitly placed here
		// (the locality the p2c pick aimed for), and the hit path costs
		// one ring pop where a steal sweep walks the whole victim list.
		if w.pickup {
			if t, ok := w.shard.Pop(); ok {
				w.rt.releaseSlot(w.shard)
				// More behind it: pass the signal on before running (the
				// same wake chaining the steal path does).
				if w.shard.Len() > 0 {
					w.wakeOneThief()
				}
				w.runTask(t)
				w.spins = 0
				continue
			}
		}
		// Steal. Lookups from here on are search effort: open the episode
		// at the last phase boundary (no clock read — see openSearch).
		w.openSearch()
		if t := w.stealProbe(); t != nil {
			w.runTask(t)
			w.spins = 0
			continue
		}
		// Persistent mode: nothing to run and nothing to steal — take
		// over a submitted job root waiting in a sibling's shard.
		if w.pickup {
			if t := w.takeSibling(); t != nil {
				w.runTask(t)
				w.spins = 0
				continue
			}
		}
		// Bounded spin: a few yielding re-sweeps catch work that is just
		// about to appear, then the worker commits to the parking protocol
		// instead of burning a core on exponential sleep. The yields stay
		// inside the open search episode, so they need no clock reads of
		// their own.
		w.spins++
		if w.spins < idleSpins {
			runtime.Gosched()
			continue
		}
		w.spins = 0
		w.idleWait()
	}
}

// workerByID resolves a core id through the dense index (hot paths only).
// Nil for reserved cores.
func (r *Runtime) workerByID(id topo.CoreID) *worker {
	if int(id) >= len(r.byID) || int(id) < 0 {
		return nil
	}
	return r.byID[id]
}

// stealProbe probes the victim list once, returning the stolen task or
// nil. The probe sequence is allocation-free: the victim list is
// materialized into the worker-owned victimBuf (guarded by
// TestStealProbeZeroAllocs). The caller owns the time accounting — the
// worker loop charges probes to its open search episode, Sync's leapfrog
// stamps them explicitly.
func (w *worker) stealProbe() *rtTask {
	b := w.rt.loadPolicy()
	if b == nil {
		return nil
	}
	w.victimBuf = b.policy.VictimsInto(w.id, w.victimBuf[:0])
	for _, v := range w.victimBuf {
		vw := w.rt.workerByID(v)
		if vw == nil {
			continue
		}
		if t, ok := vw.deque.StealTop(); ok {
			atomic.AddInt64(&w.stats.Steals, 1)
			w.emit(obs.KindSteal, int32(v), 0)
			// Wake chaining: the victim still has work, so pass the signal
			// on to its next idle thief before running the stolen task.
			if vw.deque.Len() > 0 {
				vw.wakeOneThief()
			}
			return t
		}
		atomic.AddInt64(&w.stats.FailedProbes, 1)
		w.emit(obs.KindProbeFail, int32(v), 0)
	}
	return nil
}

// takeSibling pulls the next submitted job root from another worker's
// injection shard: victims in DVS order first (injected work inherits the
// same tidal-flow steal locality as spawned work), then every shard — the
// last resort that rescues jobs stranded in the shard of a worker revoked
// after the producer picked it. A depth check gates each pop, so the idle
// sweep costs two loads per sibling; every successful pop releases
// exactly one reservation against the shard it came from.
func (w *worker) takeSibling() *rtTask {
	r := w.rt
	if b := r.loadPolicy(); b != nil {
		w.victimBuf = b.policy.VictimsInto(w.id, w.victimBuf[:0])
		for _, v := range w.victimBuf {
			vw := r.workerByID(v)
			if vw == nil || vw == w || vw.shard.Len() == 0 {
				continue
			}
			if t, ok := vw.shard.Pop(); ok {
				r.releaseSlot(vw.shard)
				atomic.AddInt64(&w.stats.ShardSteals, 1)
				if vw.shard.Len() > 0 {
					vw.wakeOneThief()
				}
				return t
			}
		}
	}
	for _, vw := range r.workerList {
		if vw == w || vw.shard.Len() == 0 {
			continue
		}
		if t, ok := vw.shard.Pop(); ok {
			r.releaseSlot(vw.shard)
			atomic.AddInt64(&w.stats.ShardSteals, 1)
			return t
		}
	}
	return nil
}

// runTask executes one task to completion (including its implicit joins).
// It nests: Sync pops and inlines unstolen children through runTask, so the
// busy flag follows a depth counter (owner-only writes).
func (w *worker) runTask(t *rtTask) {
	w.depth++
	w.busy.Store(true)
	// Phase-boundary timing: when this task follows a search episode, a
	// single clock read both closes the episode and opens the task
	// window; when it directly follows another task (back-to-back pops at
	// depth 0), the previous boundary timestamp is reused and the task
	// pays one clock read in total, at its end. The few nanoseconds of
	// queue bookkeeping between tasks land in UsefulNS — per-task runtime
	// overhead, not search. Nested frames (Sync inlining, leapfrog) have
	// no boundary to reuse and read the clock.
	var t0 int64
	switch {
	case w.searchT0 != 0:
		t0 = nowNS()
		w.closeSearch(t0)
	case w.depth == 1 && w.phaseTS != 0:
		t0 = w.phaseTS
	default:
		t0 = nowNS()
	}
	// Exclusive accounting: this frame's window starts with a clean
	// exclusion accumulator; nested runTask spans and search waits add to
	// it, and only the remainder is this task's own useful time.
	prevExcl := w.excluded
	w.excluded = 0
	ctx := w.ctxGet()
	t.fn(ctx)
	ctx.joinAll()
	w.ctxPut(ctx)
	t.done.Store(true)
	end := nowNS()
	w.phaseTS = end
	elapsed := end - t0
	if self := elapsed - w.excluded; self > 0 {
		atomic.AddInt64(&w.stats.UsefulNS, self)
	}
	atomic.AddInt64(&w.stats.Tasks, 1)
	w.emit(obs.KindTaskDone, obs.NoWorker, 0)
	// The whole window — own time included — is excluded from the
	// enclosing frame, which already counted nothing of it.
	w.excluded = prevExcl + elapsed
	w.depth--
	if w.depth == 0 {
		w.busy.Store(false)
		w.excluded = 0
	}
	if t.onDone != nil {
		t.onDone()
	}
	if t.onTerm != nil {
		t.onTerm(true)
	}
}
