package sim

import (
	"fmt"
	"math"

	"palirria/internal/core"
	"palirria/internal/dvs"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/sysched"
	"palirria/internal/task"
	"palirria/internal/topo"
)

// Config describes one single-application simulation run.
type Config struct {
	// Mesh is the machine topology (with reservations applied).
	Mesh *topo.Mesh
	// Source is the core the workload starts on.
	Source topo.CoreID
	// Root is the workload's root task.
	Root *task.Spec

	// InitialDiaspora sets the starting allotment (default 1 → 5 workers).
	InitialDiaspora int
	// MaxDiaspora caps adaptive growth (default: mesh maximum).
	MaxDiaspora int

	// Costs is the runtime cost model (zero value → DefaultCosts).
	Costs *Costs
	// Machine is the platform penalty model (nil → Ideal).
	Machine MachineModel

	// Policy selects victim selection: "dvs" (default), "random",
	// "roundrobin".
	Policy string
	// Seed drives the random policy.
	Seed uint64

	// QueueCap is each worker's task-queue capacity (default 1024).
	QueueCap int
	// StealableSlots bounds µ(Q), "set to the same constant number that is
	// sufficient for the largest number of workers" (§2.1; default 16).
	StealableSlots int

	// Estimator enables adaptation; nil runs a fixed allotment.
	Estimator core.Estimator
	// NoFilter disables the system-level false-positive filter.
	NoFilter bool
	// Quantum is the estimation interval in cycles (default 50000).
	Quantum int64

	// MaxCycles aborts runaway simulations (default 50e9).
	MaxCycles int64

	// Observe records the run: Result.Obs holds the newest 1<<16 scheduler
	// events, ready for Chrome trace export, and with an Estimator one
	// core.Explanation per quantum (DMC worker classification, raw vs.
	// filtered desire, grants).
	Observe bool
}

// Result is the outcome of a single-application run.
type Result struct {
	// ExecCycles is the total execution time, measured at the source.
	ExecCycles int64
	// Workers holds per-core statistics for every core that participated.
	Workers map[topo.CoreID]*metrics.WorkerStats
	// Timeline is the allotment size over time.
	Timeline *metrics.Timeline
	// Decisions logs every quantum's estimate and grant.
	Decisions *metrics.Log
	// FinalAllotment is the allotment when the workload completed.
	FinalAllotment *topo.Allotment
	// Events counts processed simulator events (engine health metric).
	Events int64
	// Obs is the drained observability record (nil unless
	// Config.Observe); its WriteChrome emits a Perfetto-loadable file.
	Obs *obs.TraceData
}

// Report converts the result to the metrics aggregate.
func (r *Result) Report() *metrics.Report {
	rep := &metrics.Report{
		ExecCycles: r.ExecCycles,
		Workers:    map[int]*metrics.WorkerStats{},
	}
	for id, ws := range r.Workers {
		rep.Workers[int(id)] = ws
		rep.TotalSteals += ws.Steals
		rep.TotalFailedProbes += ws.FailedProbes
		rep.TotalTasks += ws.TasksRun
	}
	rep.MaxWorkers = r.Timeline.Max()
	rep.WorkerCycleArea = r.Timeline.Area(r.ExecCycles)
	return rep
}

// Job describes one application of a multiprogrammed simulation.
type Job struct {
	// Name labels the job in results.
	Name string
	// Source is the job's source core; must be distinct across jobs.
	Source topo.CoreID
	// Root is the job's root task.
	Root *task.Spec
	// Estimator adapts the job's allotment; nil keeps requesting
	// FixedWorkers.
	Estimator core.Estimator
	// Policy selects the job's victim selection ("dvs" default).
	Policy string
	// FixedWorkers is the non-adaptive desired size (estimator == nil).
	FixedWorkers int
}

// MultiConfig describes a multiprogrammed run: several jobs co-scheduled
// on one mesh through the sysched arbiter. This is the paper's stated next
// step ("high-load multiprogrammed configurations", §8) built on the same
// engine: competition produces the incomplete allotments of Fig. 2.
type MultiConfig struct {
	Mesh *topo.Mesh
	Jobs []Job

	Costs          *Costs
	Machine        MachineModel
	Seed           uint64
	QueueCap       int
	StealableSlots int
	NoFilter       bool
	Quantum        int64
	MaxCycles      int64

	// Observe mirrors Config.Observe; snapshots of every job land in one
	// record, told apart by their Job field.
	Observe bool
}

// JobResult is one job's outcome within a multiprogrammed run.
type JobResult struct {
	// Name echoes the job name.
	Name string
	// StartCycles and FinishCycles bound the job's execution.
	StartCycles, FinishCycles int64
	// Timeline is the job's allotment size over time.
	Timeline *metrics.Timeline
	// Decisions logs the job's quanta.
	Decisions *metrics.Log
}

// ExecCycles is the job's makespan.
func (jr *JobResult) ExecCycles() int64 { return jr.FinishCycles - jr.StartCycles }

// MultiResult is the outcome of a multiprogrammed run.
type MultiResult struct {
	// Jobs holds per-job results in configuration order.
	Jobs []*JobResult
	// Workers holds per-core statistics (across all jobs that used the
	// core).
	Workers map[topo.CoreID]*metrics.WorkerStats
	// MakespanCycles is when the last job finished.
	MakespanCycles int64
	// Events counts processed simulator events.
	Events int64
	// Obs is the drained observability record (nil unless
	// MultiConfig.Observe).
	Obs *obs.TraceData
}

// slot is the key of one event-queue entry: the next activation of an id —
// a worker, or the estimator tick (id == engine.tick). It holds no
// pointers, so the collector never scans the queue.
type slot struct {
	at  int64
	seq uint64
}

// notQueued is the key of an id with nothing scheduled; it sorts after
// every real slot.
var notQueued = slot{at: math.MaxInt64, seq: math.MaxUint64}

// slotQueue is a winner (tournament) tree holding at most one slot per id:
// rescheduling rewrites the id's key, so nothing superseded is ever queued.
// seq numbers every set call, superseding ones included, so equal-time
// slots fire in the order they were last scheduled.
//
// keys[id] is id's slot (notQueued while not queued). tree is a complete
// binary tree over a power-of-two range of leaves, leaf id at
// tree[len(tree)/2+id]; every internal node names the id with the earliest
// key below it, so tree[1] is the next due id. A set or remove rewrites one
// key and replays its matches on the leaf-to-root path against the sibling
// subtrees' winners: a fixed number of levels, six for 64 leaves.
type slotQueue struct {
	keys []slot
	tree []int32
	seq  uint64
}

func newSlotQueue(ids int) slotQueue {
	leaves := 1
	for leaves < ids {
		leaves *= 2
	}
	q := slotQueue{keys: make([]slot, leaves), tree: make([]int32, 2*leaves)}
	for id := range q.keys {
		q.keys[id] = notQueued
		q.tree[leaves+id] = int32(id)
	}
	for i := leaves - 1; i > 0; i-- {
		q.tree[i] = q.tree[2*i]
	}
	return q
}

// min returns the next due id and its slot; the slot is notQueued when the
// queue is empty.
func (q *slotQueue) min() (int32, slot) {
	id := q.tree[1]
	return id, q.keys[id]
}

// set schedules id at time at, superseding its slot if it is already
// queued.
func (q *slotQueue) set(id int32, at int64) {
	q.seq++
	q.keys[id] = slot{at: at, seq: q.seq}
	q.replay(id)
}

// remove takes id's slot out of the queue.
func (q *slotQueue) remove(id int32) {
	q.keys[id] = notQueued
	q.replay(id)
}

// replay recomputes the winners on id's leaf-to-root path after its key
// changed. The (at, seq) comparison is evaluated without short-circuit
// branches so that the winner update compiles to conditional moves: which
// side wins is data-dependent, so a branch here is mispredicted about half
// the time.
func (q *slotQueue) replay(id int32) {
	keys, tree := q.keys, q.tree
	w, at, seq := id, keys[id].at, keys[id].seq
	for i := len(tree)/2 + int(id); i > 1; i >>= 1 {
		o := tree[i^1]
		oat, oseq := keys[o].at, keys[o].seq
		if b2i(oat < at)|b2i(oat == at)&b2i(oseq < seq) != 0 {
			w, at, seq = o, oat, oseq
		}
		tree[i>>1] = w
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// jobState is one application's live scheduling state inside the engine.
type jobState struct {
	idx    int
	name   string
	source topo.CoreID
	policy string
	fixed  int

	rootFrame *frame
	granted   *topo.Allotment
	victims   dvs.Policy

	// mgr grants zones in single-job mode; app arbitrates cores in
	// multi-job mode. Exactly one is non-nil.
	mgr *sysched.Manager
	app *sysched.App

	ctrl *core.Controller

	started  bool
	startAt  int64
	finished bool
	finishAt int64

	timeline metrics.Timeline
}

// newController wraps est for one job; nil when the job has no estimator.
func newController(est core.Estimator, noFilter bool) *core.Controller {
	if est == nil {
		return nil
	}
	c := core.NewController(est)
	if noFilter {
		c.Filter = nil
	}
	return c
}

// engine runs one simulation (one or many jobs).
type engine struct {
	costs   Costs
	machine MachineModel
	mesh    *topo.Mesh

	queueCap, stealableSlots int
	seed                     uint64
	quantum                  int64
	maxCycles                int64
	noFilter                 bool

	now   int64
	queue slotQueue
	// tick is the estimator quantum's slot id, one past the last core's.
	tick int32

	// workers is indexed by CoreID; nil until the core first joins.
	workers    []*worker
	jobs       []*jobState
	arb        *sysched.Arbiter
	unfinished int

	// busy counts workers with a non-empty frame stack: the population
	// consuming memory bandwidth in the NUMA model's ComputeFactor.
	busy int

	// tracer and ring record scheduler events and per-quantum estimator
	// explanations when observed. The simulator is single-threaded, so one
	// keep-newest ring serves every worker.
	tracer *obs.Tracer
	ring   *obs.Ring

	eventCount int64

	// freeFrames holds collected frames for reuse (see engine.collect);
	// framesMade counts the frames allocated because it was empty.
	freeFrames []*frame
	framesMade int64
}

// observe turns on the run record: the newest events of a default-sized
// keep-newest ring survive.
func (e *engine) observe() {
	e.tracer = obs.NewTracer()
	e.ring = e.tracer.NewRing(true)
}

// Run executes a single-application configuration to completion.
func Run(cfg Config) (*Result, error) {
	e, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	j := e.jobs[0]
	res := &Result{
		ExecCycles:     j.finishAt,
		Workers:        e.workerStats(),
		Timeline:       &j.timeline,
		Decisions:      j.ctrl.Decisions(),
		FinalAllotment: j.granted,
		Events:         e.eventCount,
	}
	if e.tracer != nil {
		res.Obs = e.tracer.Drain()
	}
	return res, nil
}

// setup builds the engine for cfg with its job installed, ready to run.
func setup(cfg Config) (*engine, error) {
	e, err := newEngine(engineParams{
		mesh: cfg.Mesh, costs: cfg.Costs, machine: cfg.Machine,
		queueCap: cfg.QueueCap, stealableSlots: cfg.StealableSlots,
		seed: cfg.Seed, quantum: cfg.Quantum, maxCycles: cfg.MaxCycles,
		noFilter: cfg.NoFilter,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Observe {
		e.observe()
	}
	if cfg.Root == nil {
		return nil, fmt.Errorf("sim: nil root task")
	}
	if _, err := task.Validate(cfg.Root); err != nil {
		return nil, fmt.Errorf("sim: invalid root: %w", err)
	}
	mgr, err := sysched.NewManager(cfg.Mesh, cfg.Source, cfg.InitialDiaspora, cfg.MaxDiaspora)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	j := &jobState{
		name:   "job",
		source: cfg.Source,
		policy: cfg.Policy,
		mgr:    mgr,
		ctrl:   newController(cfg.Estimator, cfg.NoFilter),
	}
	e.addJob(j, cfg.Root, mgr.Current())
	return e, nil
}

// workerStats returns the statistics of every core that ever joined.
func (e *engine) workerStats() map[topo.CoreID]*metrics.WorkerStats {
	out := map[topo.CoreID]*metrics.WorkerStats{}
	for id, w := range e.workers {
		if w != nil {
			out[topo.CoreID(id)] = &w.stats
		}
	}
	return out
}

// RunMulti executes a multiprogrammed configuration to completion.
func RunMulti(cfg MultiConfig) (*MultiResult, error) {
	e, err := setupMulti(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	out := &MultiResult{
		Workers: e.workerStats(),
		Events:  e.eventCount,
	}
	for _, j := range e.jobs {
		out.Jobs = append(out.Jobs, &JobResult{
			Name:         j.name,
			StartCycles:  j.startAt,
			FinishCycles: j.finishAt,
			Timeline:     &j.timeline,
			Decisions:    j.ctrl.Decisions(),
		})
		if j.finishAt > out.MakespanCycles {
			out.MakespanCycles = j.finishAt
		}
	}
	if e.tracer != nil {
		out.Obs = e.tracer.Drain()
	}
	return out, nil
}

// setupMulti builds the engine for cfg with every job installed, ready to
// run.
func setupMulti(cfg MultiConfig) (*engine, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("sim: no jobs")
	}
	e, err := newEngine(engineParams{
		mesh: cfg.Mesh, costs: cfg.Costs, machine: cfg.Machine,
		queueCap: cfg.QueueCap, stealableSlots: cfg.StealableSlots,
		seed: cfg.Seed, quantum: cfg.Quantum, maxCycles: cfg.MaxCycles,
		noFilter: cfg.NoFilter,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Observe {
		e.observe()
	}
	e.arb = sysched.NewArbiter(cfg.Mesh)
	for i, jc := range cfg.Jobs {
		if jc.Root == nil {
			return nil, fmt.Errorf("sim: job %d: nil root", i)
		}
		if _, err := task.Validate(jc.Root); err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		name := jc.Name
		if name == "" {
			name = fmt.Sprintf("job%d", i)
		}
		app, err := e.arb.Register(name, jc.Source)
		if err != nil {
			return nil, fmt.Errorf("sim: job %d: %w", i, err)
		}
		j := &jobState{
			idx:    i,
			name:   name,
			source: jc.Source,
			policy: jc.Policy,
			fixed:  jc.FixedWorkers,
			app:    app,
			ctrl:   newController(jc.Estimator, cfg.NoFilter),
		}
		e.addJob(j, jc.Root, app.Allotment())
	}
	return e, nil
}

type engineParams struct {
	mesh           *topo.Mesh
	costs          *Costs
	machine        MachineModel
	queueCap       int
	stealableSlots int
	seed           uint64
	quantum        int64
	maxCycles      int64
	noFilter       bool
}

func newEngine(p engineParams) (*engine, error) {
	if p.mesh == nil {
		return nil, fmt.Errorf("sim: nil mesh")
	}
	e := &engine{
		costs:   DefaultCosts(),
		machine: Ideal{},
		mesh:    p.mesh,
		workers: make([]*worker, p.mesh.NumCores()),
		queue:   newSlotQueue(p.mesh.NumCores() + 1),
		tick:    int32(p.mesh.NumCores()),
	}
	if p.costs != nil {
		e.costs = *p.costs
	}
	if p.machine != nil {
		e.machine = p.machine
	}
	e.queueCap = p.queueCap
	if e.queueCap == 0 {
		e.queueCap = 1024
	}
	e.stealableSlots = p.stealableSlots
	if e.stealableSlots == 0 {
		e.stealableSlots = 16
	}
	e.seed = p.seed
	e.quantum = p.quantum
	if e.quantum == 0 {
		e.quantum = 50000
	}
	e.maxCycles = p.maxCycles
	if e.maxCycles == 0 {
		e.maxCycles = 50e9
	}
	e.noFilter = p.noFilter
	return e, nil
}

// addJob installs a job with its initial allotment and bootstraps workers.
func (e *engine) addJob(j *jobState, root *task.Spec, granted *topo.Allotment) {
	j.granted = granted
	j.rootFrame = e.newFrame(root, j.source, nil)
	j.rootFrame.isRoot = true
	j.started = true
	j.startAt = e.now
	e.jobs = append(e.jobs, j)
	e.unfinished++
	e.rebuildPolicy(j)
	for _, id := range granted.Members() {
		w := e.newWorker(id, j)
		if id == j.source {
			w.pushFrame(j.rootFrame)
			w.state = wsRun
		} else {
			w.state = wsSteal
			w.beginStealRound()
		}
		e.schedule(w, e.now)
	}
	j.timeline.Record(e.now, granted.Size())
	if len(e.jobs) == 1 && e.needsQuantum() {
		e.scheduleQuantum(e.now + e.quantum)
	}
}

// needsQuantum reports whether any job requires periodic estimation (any
// controller, or any arbitrated job that may regrow).
func (e *engine) needsQuantum() bool {
	if e.arb != nil {
		return true
	}
	for _, j := range e.jobs {
		if j.ctrl != nil {
			return true
		}
	}
	return false
}

func (e *engine) newWorker(id topo.CoreID, j *jobState) *worker {
	w := e.workers[id]
	if w == nil {
		w = newWorker(e, id)
		e.workers[id] = w
		w.stats.JoinedAt = e.now
		if e.tracer != nil {
			e.tracer.SetWorkerName(int32(id), fmt.Sprintf("core %d", id))
		}
	}
	w.job = j
	w.retired = false
	w.draining = false
	w.stats.RetiredAt = -1
	return w
}

// rebuildPolicy rebuilds victim lists over the job's resident set: granted
// members plus draining workers, which remain victims until they retire
// (§4.1.1).
func (e *engine) rebuildPolicy(j *jobState) {
	var extra []topo.CoreID
	for _, w := range e.workers {
		if w != nil && w.job == j && w.draining && !w.retired && !j.granted.Contains(w.id) {
			extra = append(extra, w.id)
		}
	}
	j.victims, _ = dvs.ForResident(j.granted, extra, j.policy, e.seed^uint64(j.idx)*0x9e3779b97f4a7c15)
}

// schedule (re)schedules w's next activation at time t, superseding any
// outstanding one.
func (e *engine) schedule(w *worker, t int64) { e.queue.set(int32(w.id), t) }

func (e *engine) scheduleQuantum(t int64) { e.queue.set(e.tick, t) }

func (e *engine) run() error {
	for {
		id, s := e.queue.min()
		if s == notQueued {
			break
		}
		if s.at < e.now {
			return fmt.Errorf("sim: time went backwards (%d < %d)", s.at, e.now)
		}
		e.now = s.at
		if e.now > e.maxCycles {
			return fmt.Errorf("sim: exceeded MaxCycles=%d — likely deadlock or runaway workload", e.maxCycles)
		}
		if e.unfinished == 0 {
			break
		}
		// The due slot stays queued while it fires — nothing scheduled
		// meanwhile can sort before it — so the usual self-reschedule is one
		// rewrite of its key instead of a removal and a set.
		if id == e.tick {
			e.quantumTick()
			if e.unfinished > 0 {
				e.scheduleQuantum(e.now + e.quantum)
			}
		} else if w := e.workers[id]; !w.retired {
			// A worker retired with its slot still queued — its job
			// finished under it in RunMulti — fires as a no-op.
			e.eventCount++
			w.step()
		}
		if e.queue.keys[id].seq == s.seq {
			e.queue.remove(id) // fired without rescheduling itself
		}
	}
	if e.unfinished > 0 {
		return fmt.Errorf("sim: event queue drained with %d job(s) unfinished", e.unfinished)
	}
	return nil
}

// quantumTick runs every unfinished job's estimator and applies grants.
func (e *engine) quantumTick() {
	for _, j := range e.jobs {
		if j.finished {
			continue
		}
		desired := j.granted.Size()
		var snap *core.Snapshot
		if j.ctrl != nil {
			snap = j.ctrl.Sample(j.granted, e.quantum, e.now, func(ws *core.WorkerSnapshot) bool {
				return e.readWorker(j, ws)
			})
			desired = j.ctrl.Step(snap)
		} else if j.fixed > 0 {
			desired = j.fixed
		}
		prev := j.granted
		var next *topo.Allotment
		var changed bool
		if j.app != nil {
			next = e.arb.Request(j.app, desired)
			changed = next.Size() != prev.Size() || !sameMembers(next, prev)
		} else {
			next, changed = j.mgr.Grant(desired)
		}
		if j.ctrl != nil {
			j.ctrl.Record(e.now, next.Size())
			if e.tracer != nil {
				e.tracer.Quantum(e.ring, e.now, int32(j.source), j.name, j.ctrl.Explain(snap))
			}
		}
		if !changed {
			continue
		}
		e.applyGrant(j, prev, next)
	}
}

func sameMembers(a, b *topo.Allotment) bool {
	if a.Size() != b.Size() {
		return false
	}
	for _, id := range a.Members() {
		if !b.Contains(id) {
			return false
		}
	}
	return true
}

// applyGrant transitions workers between the old and new allotments.
func (e *engine) applyGrant(j *jobState, prev, next *topo.Allotment) {
	j.granted = next
	// Workers leaving the grant drain; workers (re)entering bootstrap or
	// revoke their removal.
	for _, id := range prev.Members() {
		if !next.Contains(id) {
			if w := e.workers[id]; w != nil && w.job == j {
				w.draining = true
			}
		}
	}
	for _, id := range next.Members() {
		w := e.workers[id]
		switch {
		case w == nil || w.job != j || w.retired:
			// New to this job (or returning after retirement): fresh
			// bootstrap as a thief.
			w = e.newWorker(id, j)
			w.state = wsSteal
			w.beginStealRound()
			e.schedule(w, e.now+e.costs.Bootstrap)
		case w.draining:
			// Removal revoked before the worker finished draining.
			w.draining = false
		}
	}
	e.rebuildPolicy(j)
	j.timeline.Record(e.now, j.granted.Size())
	e.trace(obs.KindGrant, j.source, topo.NoCore, j.granted.Size(), j.name)
}

// readWorker fills one member's reading for job j's quantum sample;
// false when the core holds no worker of j. The simulator samples the
// stealable queue and resets the high-water mark eagerly, so the next
// quantum's mark starts from zero.
func (e *engine) readWorker(j *jobState, ws *core.WorkerSnapshot) bool {
	w := e.workers[ws.ID]
	if w == nil || w.job != j {
		return false
	}
	ws.QueueLen = w.queue.StealableLen()
	ws.MaxQueueLen = max(w.maxQueueLen, ws.QueueLen)
	w.maxQueueLen = 0
	ws.Busy = !w.retired && len(w.stack) > 0
	ws.WastedCycles = w.stats.AStealWasted()
	ws.Draining = w.draining
	return true
}

// finishJob records job completion and releases its resources.
func (e *engine) finishJob(j *jobState) {
	j.finished = true
	j.finishAt = e.now
	j.timeline.Record(e.now, j.granted.Size())
	e.unfinished--
	if e.arb == nil {
		return
	}
	// Multiprogrammed mode: retire the job's workers and return its cores
	// to the free pool so competing jobs can grow into them.
	for _, w := range e.workers {
		if w != nil && w.job == j && !w.retired {
			w.retired = true
			w.job = nil
			if w.stats.RetiredAt < 0 {
				w.stats.RetiredAt = e.now
			}
		}
	}
	e.arb.Release(j.app)
}
