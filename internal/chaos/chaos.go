// Package chaos is a deterministic adversarial harness for the runtime's
// reconfiguration paths. Every scenario is planned entirely up front: a
// seed drives an xrand.Xoshiro256 whose draws fix the topology, the job
// mix, the cap-oscillation timeline and the shutdown point, producing a
// Script that marshals to byte-identical JSON for the same seed. The
// script is then executed against the real runtime (or the serving layers
// above it) while a ledger records the fate of every job, and conservation
// invariants are checked once the dust settles:
//
//   - every Submit that returned nil has its onDone fire exactly once;
//   - no job body runs twice, and a body that ran executed every leaf of
//     its task tree exactly once (nothing lost across a drain or retire);
//   - attempted == accepted + rejected;
//   - per-worker UsefulNS + SearchNS + IdleNS never exceeds the reported
//     wall clock;
//   - pool layers conserve admissions: admitted == completed + cancelled,
//     with zero jobs in flight after Drain;
//   - the runtime's submission gate balances after shutdown: every
//     reserved unit of SubmitQueueCap is back exactly once, no
//     reservation leaked or was double-released (wsrt.VerifySubmitLedger);
//   - the whole scenario completes within a deadlock bound.
//
// Execution interleavings stay nondeterministic — that is the point; the
// schedule is the adversary. Determinism lives in the plan, so a failing
// (scenario, seed) pair replays the same adversarial pressure.
package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// Layer names a driving surface.
const (
	LayerRuntime = "runtime" // wsrt.Runtime via Submit/SetMaxWorkers/Shutdown
	LayerPool    = "pool"    // serve.Pool via Submit/SetMaxWorkers/Drain
	LayerTenancy = "tenancy" // two serve.Pools under a serve.Tenancy
	LayerCluster = "cluster" // a gossip router over N serve.Pools on loopback HTTP
	LayerDAG     = "dag"     // serve.Pool via SubmitDAG with planned graph storms
)

// JobSpec is one planned job: a binary fan of Leaves leaf tasks, each
// spinning ComputeNS synthetic nanoseconds, submitted after DelayUS.
// Class picks the priority class (0 = low); DeadlineUS > 0 attaches a
// start deadline that far in the future at submit time.
type JobSpec struct {
	Leaves     int   `json:"leaves"`
	ComputeNS  int64 `json:"compute_ns"`
	DelayUS    int64 `json:"delay_us,omitempty"`
	Class      int   `json:"class,omitempty"`
	DeadlineUS int64 `json:"deadline_us,omitempty"`
}

// CapEvent imposes a worker cap at AtUS microseconds after the scenario
// starts (Cap <= 0 lifts the cap). Events are planned in ascending time.
type CapEvent struct {
	AtUS int64 `json:"at_us"`
	Cap  int   `json:"cap"`
}

// Script is a fully planned scenario. It is pure data: planning the same
// (scenario, seed) pair always yields the same script, byte-for-byte under
// JSON marshalling, which is what makes a printed seed a complete repro.
// Replay re-plans from (scenario, seed) and never decodes a script.
type Script struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Layer    string `json:"layer"`

	MeshW  int `json:"mesh_w"`
	MeshH  int `json:"mesh_h"`
	Source int `json:"source"`
	// QuantumUS enables the Palirria estimator at that quantum; 0 runs the
	// fixed initial allotment (adaptation off).
	QuantumUS      int64 `json:"quantum_us,omitempty"`
	SubmitQueueCap int   `json:"submit_queue_cap"`
	PoolQueueCap   int   `json:"pool_queue_cap,omitempty"`

	Submitters int       `json:"submitters"`
	Jobs       []JobSpec `json:"jobs"`
	// BatchSize > 1 makes runtime-layer submitters use SubmitBatch in
	// chunks of this size (with prefix-acceptance handling); otherwise
	// jobs are submitted one by one.
	BatchSize int `json:"batch_size,omitempty"`
	// GiveUpOnFull counts ErrSubmitQueueFull as a rejection instead of
	// retrying — the queue-full-flush scenario wants rejections on the
	// books so the accepted/rejected partition is exercised.
	GiveUpOnFull bool       `json:"give_up_on_full,omitempty"`
	CapEvents    []CapEvent `json:"cap_events,omitempty"`
	// ShutdownAtUS fires Shutdown (or the pool Drain) at a fixed offset,
	// racing the submit storm; 0 waits for the submitters first.
	ShutdownAtUS int64 `json:"shutdown_at_us,omitempty"`
	// DrainBacklog waits for every accepted job to finish running before
	// Shutdown (runtime layer, ShutdownAtUS == 0 only). Without it the
	// flush discards whatever is still queued — legal, but the shrink and
	// revoke scenarios want their work to actually flow through the drains.
	DrainBacklog bool `json:"drain_backlog,omitempty"`
	// Tenancy knobs: re-arbitration period and when the first pool drains.
	RearbEveryUS   int64 `json:"rearb_every_us,omitempty"`
	DrainFirstAtUS int64 `json:"drain_first_at_us,omitempty"`
	// ShedQuanta overrides the pool's shed-ladder arming threshold (pool
	// and dag layers); 0 keeps the serve default.
	ShedQuanta int `json:"shed_quanta,omitempty"`
	// AuditClassEvents attaches an event hub (pool layer) and audits the
	// admission/shed stream against the ladder-stamping invariant: every
	// class-shed event carries a ladder level above its class, every
	// admitted event a level at or below it — the exact, totally-ordered
	// form of "no high-class shed while low-class admitted in the same
	// window".
	AuditClassEvents bool `json:"audit_class_events,omitempty"`
	// DAGs is the planned graph storm for the dag layer; Jobs is unused
	// there.
	DAGs []DAGSpec `json:"dags,omitempty"`
	// Streaming knobs (pool layer): StreamSubs > 0 attaches an event hub to
	// the pool and runs that many churning subscribers that attach, read for
	// StreamChurnUS microseconds through a StreamBuf-slot buffer, and detach,
	// over and over, while a durable terminal-event subscriber audits that
	// every admitted job yields exactly one completed/cancelled event or a
	// counted drop — and that nothing is delivered after a Close returns.
	StreamSubs    int   `json:"stream_subs,omitempty"`
	StreamBuf     int   `json:"stream_buf,omitempty"`
	StreamChurnUS int64 `json:"stream_churn_us,omitempty"`
	// Cluster knobs (cluster layer): a palirria-router core fronting
	// ClusterNodes serve pools over real loopback HTTP, all gossiping at
	// GossipEveryUS with the given suspicion timeouts. KillNode is cut
	// abruptly (listener and live connections dropped, then drained) at
	// KillAtUS into the storm; the router must fail the traffic over and,
	// once its gossip confirms the death, never route there again.
	ClusterNodes   int   `json:"cluster_nodes,omitempty"`
	GossipEveryUS  int64 `json:"gossip_every_us,omitempty"`
	SuspectAfterUS int64 `json:"suspect_after_us,omitempty"`
	DeadAfterUS    int64 `json:"dead_after_us,omitempty"`
	KillNode       int   `json:"kill_node,omitempty"`
	KillAtUS       int64 `json:"kill_at_us,omitempty"`
	RouterRetries  int   `json:"router_retries,omitempty"`
}

// Marshal renders the script as its canonical replay bytes.
func (sc *Script) Marshal() []byte {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return b
}

// Result is a scenario run's verdict and ledger totals.
type Result struct {
	Scenario   string   `json:"scenario"`
	Seed       uint64   `json:"seed"`
	DurationNS int64    `json:"duration_ns"`
	Attempted  int64    `json:"attempted"`
	Accepted   int64    `json:"accepted"`
	Rejected   int64    `json:"rejected"`
	Completed  int64    `json:"completed"`
	Discarded  int64    `json:"discarded"`
	LeafRuns   int64    `json:"leaf_runs"`
	Violations []string `json:"violations,omitempty"`

	mu sync.Mutex
}

// Ok reports whether the run upheld every invariant.
func (r *Result) Ok() bool { return len(r.Violations) == 0 }

func (r *Result) fail(format string, args ...any) {
	r.mu.Lock()
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// job outcomes in the ledger.
const (
	outcomeUnattempted int32 = iota
	outcomeAccepted
	outcomeRejected
)

// jobRec is one job's ledger entry: what Submit said, how many times
// onDone fired, how many times the body ran, how many leaves executed.
type jobRec struct {
	leaves   int
	outcome  atomic.Int32
	done     atomic.Int32
	body     atomic.Int32
	leafRuns atomic.Int64
}

// Run executes a planned script against the live stack and checks the
// conservation invariants, bounding the whole run by timeout. On timeout
// the returned result reports a deadlock violation; the stuck goroutines
// are abandoned (this is a test harness — the report is the product).
func Run(sc *Script, timeout time.Duration) *Result {
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	res := &Result{Scenario: sc.Scenario, Seed: sc.Seed}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		switch sc.Layer {
		case LayerRuntime:
			runRuntime(sc, res)
		case LayerPool:
			runPool(sc, res)
		case LayerTenancy:
			runTenancy(sc, res)
		case LayerCluster:
			runCluster(sc, res)
		case LayerDAG:
			runDAG(sc, res)
		default:
			res.fail("unknown layer %q", sc.Layer)
		}
	}()
	select {
	case <-done:
		res.DurationNS = time.Since(start).Nanoseconds()
		return res
	case <-time.After(timeout):
		// The runaway goroutine may still be appending to res; hand back a
		// detached result so the caller reads stable memory.
		return &Result{
			Scenario:   sc.Scenario,
			Seed:       sc.Seed,
			DurationNS: time.Since(start).Nanoseconds(),
			Violations: []string{fmt.Sprintf("deadlock: scenario did not complete within %v", timeout)},
		}
	}
}

// newLedger allocates one record per planned job.
func newLedger(sc *Script) []*jobRec {
	recs := make([]*jobRec, len(sc.Jobs))
	for i, spec := range sc.Jobs {
		recs[i] = &jobRec{leaves: spec.Leaves}
	}
	return recs
}

// fanLeaves spawns a binary fan of n leaves, counting each execution.
func fanLeaves(c *wsrt.Ctx, n int, compute int64, runs *atomic.Int64) {
	if n <= 1 {
		if compute > 0 {
			c.Compute(compute)
		}
		runs.Add(1)
		return
	}
	half := n / 2
	c.Spawn(func(cc *wsrt.Ctx) { fanLeaves(cc, half, compute, runs) })
	fanLeaves(c, n-half, compute, runs)
	c.Sync()
}

func jobBody(rec *jobRec, spec JobSpec) wsrt.Func {
	return func(c *wsrt.Ctx) {
		rec.body.Add(1)
		fanLeaves(c, spec.Leaves, spec.ComputeNS, &rec.leafRuns)
	}
}

func sleepUS(us int64) {
	if us > 0 {
		time.Sleep(time.Duration(us) * time.Microsecond)
	}
}

// oscillate applies the cap timeline against set (any layer's
// SetMaxWorkers). Caps are atomic stores underneath, so applying one after
// shutdown is harmless — the timeline runs to completion.
func oscillate(events []CapEvent, start time.Time, set func(int)) {
	for _, ev := range events {
		if d := time.Duration(ev.AtUS)*time.Microsecond - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		set(ev.Cap)
	}
}

// backlogClear reports whether every accepted job has resolved. Only
// meaningful once the submitters have returned (the outcome set is
// stable).
func backlogClear(recs []*jobRec) bool {
	for _, rec := range recs {
		if rec.outcome.Load() == outcomeAccepted && rec.done.Load() == 0 {
			return false
		}
	}
	return true
}

// checkLedger audits every job record against its recorded outcome and
// folds the totals into the result.
func checkLedger(recs []*jobRec, res *Result) {
	for i, rec := range recs {
		switch rec.outcome.Load() {
		case outcomeAccepted:
			res.Attempted++
			res.Accepted++
			if d := rec.done.Load(); d != 1 {
				res.fail("job %d: accepted but onDone fired %d times (want exactly 1)", i, d)
			}
			b := rec.body.Load()
			if b > 1 {
				res.fail("job %d: body ran %d times (duplicated)", i, b)
			}
			lr := rec.leafRuns.Load()
			res.LeafRuns += lr
			switch {
			case b == 1:
				res.Completed++
				if lr != int64(rec.leaves) {
					res.fail("job %d: body ran but %d of %d leaves executed (task lost or duplicated)", i, lr, rec.leaves)
				}
			case b == 0:
				res.Discarded++
				if lr != 0 {
					res.fail("job %d: body never ran yet %d leaves executed", i, lr)
				}
			}
		case outcomeRejected:
			res.Attempted++
			res.Rejected++
			if d := rec.done.Load(); d != 0 {
				res.fail("job %d: rejected but onDone fired %d times", i, d)
			}
			if b := rec.body.Load(); b != 0 {
				res.fail("job %d: rejected but body ran %d times", i, b)
			}
		}
	}
	if res.Attempted != res.Accepted+res.Rejected {
		res.fail("ledger: attempted %d != accepted %d + rejected %d", res.Attempted, res.Accepted, res.Rejected)
	}
}

// checkReport asserts the worker time partition against the post-quiesce
// wall clock. The slack absorbs clock-read ordering at the edges, not
// accounting drift.
func checkReport(rep *wsrt.Report, res *Result, tag string) {
	if rep == nil {
		res.fail("%s: no final report", tag)
		return
	}
	const slack = int64(2 * time.Millisecond)
	for id, w := range rep.Workers {
		if sum := w.UsefulNS + w.SearchNS + w.IdleNS; sum > rep.WallNS+slack {
			res.fail("%s: worker %d useful+search+idle %dns exceeds wall %dns", tag, id, sum, rep.WallNS)
		}
	}
}

// runRuntime drives a bare wsrt.Runtime.
func runRuntime(sc *Script, res *Result) {
	cfg := wsrt.Config{
		Mesh:           topo.MustMesh(sc.MeshW, sc.MeshH),
		Source:         topo.CoreID(sc.Source),
		SubmitQueueCap: sc.SubmitQueueCap,
	}
	if sc.QuantumUS > 0 {
		cfg.Estimator = core.NewPalirria()
		cfg.Quantum = time.Duration(sc.QuantumUS) * time.Microsecond
	}
	rt, err := wsrt.New(cfg)
	if err != nil {
		res.fail("build runtime: %v", err)
		return
	}
	if err := rt.Start(); err != nil {
		res.fail("start runtime: %v", err)
		return
	}
	recs := newLedger(sc)
	start := time.Now()

	oscDone := make(chan struct{})
	go func() {
		defer close(oscDone)
		oscillate(sc.CapEvents, start, rt.SetMaxWorkers)
	}()

	var wg sync.WaitGroup
	for g := 0; g < sc.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if sc.BatchSize > 1 {
				runtimeSubmitBatches(rt, sc, recs, g, res)
				return
			}
			for j := g; j < len(sc.Jobs); j += sc.Submitters {
				rec, spec := recs[j], sc.Jobs[j]
				sleepUS(spec.DelayUS)
				for {
					err := rt.Submit(jobBody(rec, spec), func() { rec.done.Add(1) })
					switch {
					case err == nil:
						rec.outcome.Store(outcomeAccepted)
					case errors.Is(err, wsrt.ErrSubmitQueueFull):
						if sc.GiveUpOnFull {
							rec.outcome.Store(outcomeRejected)
							break
						}
						runtime.Gosched()
						continue
					case errors.Is(err, wsrt.ErrClosed):
						// Shutdown won the race; this and all later jobs
						// stay off the books.
						rec.outcome.Store(outcomeRejected)
						return
					default:
						rec.outcome.Store(outcomeRejected)
						res.fail("job %d: unexpected submit error: %v", j, err)
					}
					break
				}
			}
		}(g)
	}

	var rep *wsrt.Report
	if sc.ShutdownAtUS > 0 {
		// Shutdown races the storm; the gate's close and flush must make
		// every nil-returning Submit's onDone fire anyway.
		if d := time.Duration(sc.ShutdownAtUS)*time.Microsecond - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		rep, err = rt.Shutdown()
		wg.Wait()
	} else {
		wg.Wait()
		if sc.DrainBacklog {
			// Every accepted job's onDone fires once its tree completes;
			// the deadlock bound catches a backlog that never clears.
			for !backlogClear(recs) {
				time.Sleep(200 * time.Microsecond)
			}
		}
		rep, err = rt.Shutdown()
	}
	if err != nil {
		res.fail("shutdown: %v", err)
	}
	if err := rt.VerifySubmitLedger(); err != nil {
		res.fail("submit ledger: %v", err)
	}
	<-oscDone
	// Submitters have returned and Shutdown has flushed, so the ledger is
	// quiescent: every accepted job's onDone has fired.
	checkLedger(recs, res)
	checkReport(rep, res, "runtime")
}

// runtimeSubmitBatches drives submitter g's share of the job list through
// SubmitBatch in chunks of sc.BatchSize, honouring the prefix-acceptance
// contract: the first n jobs of a failed batch are on the books (their
// onDone will fire), the remainder is retried or marked rejected exactly
// like the one-by-one path.
func runtimeSubmitBatches(rt *wsrt.Runtime, sc *Script, recs []*jobRec, g int, res *Result) {
	var mine []int
	for j := g; j < len(sc.Jobs); j += sc.Submitters {
		mine = append(mine, j)
	}
	for start := 0; start < len(mine); {
		end := start + sc.BatchSize
		if end > len(mine) {
			end = len(mine)
		}
		chunk := mine[start:end]
		sleepUS(sc.Jobs[chunk[0]].DelayUS)
		jobs := make([]wsrt.Job, len(chunk))
		for k, j := range chunk {
			rec := recs[j]
			jobs[k] = wsrt.Job{Fn: jobBody(rec, sc.Jobs[j]), OnDone: func() { rec.done.Add(1) }}
		}
		n, err := rt.SubmitBatch(jobs)
		for _, j := range chunk[:n] {
			recs[j].outcome.Store(outcomeAccepted)
		}
		start += n
		switch {
		case err == nil:
		case errors.Is(err, wsrt.ErrSubmitQueueFull):
			if sc.GiveUpOnFull {
				for _, j := range chunk[n:] {
					recs[j].outcome.Store(outcomeRejected)
				}
				start = end
			} else {
				runtime.Gosched()
			}
		case errors.Is(err, wsrt.ErrClosed):
			// Shutdown won the race; the unaccepted suffix and all later
			// jobs stay off the books.
			for _, j := range chunk[n:] {
				recs[j].outcome.Store(outcomeRejected)
			}
			return
		default:
			for _, j := range chunk[n:] {
				recs[j].outcome.Store(outcomeRejected)
			}
			res.fail("batch at job %d: unexpected submit error: %v", chunk[n], err)
			start = end
		}
	}
}

// poolSubmitJobs drives one pool's share of the job list. Pool submission
// is synchronous, so each submitter's jobs serialize; the outcome maps the
// serve sentinels onto the ledger.
func poolSubmitJobs(p *serve.Pool, sc *Script, recs []*jobRec, pick func(j int) bool, wg *sync.WaitGroup, res *Result) {
	for g := 0; g < sc.Submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := g; j < len(sc.Jobs); j += sc.Submitters {
				if !pick(j) {
					continue
				}
				rec, spec := recs[j], sc.Jobs[j]
				sleepUS(spec.DelayUS)
				jb := serve.Job{Fn: jobBody(rec, spec), Class: serve.Class(spec.Class)}
				if spec.DeadlineUS > 0 {
					jb.Deadline = time.Now().Add(time.Duration(spec.DeadlineUS) * time.Microsecond)
				}
				err := p.SubmitJob(context.Background(), jb)
				switch {
				case err == nil:
					rec.outcome.Store(outcomeAccepted)
					rec.done.Add(1) // synchronous completion is the ack
				case errors.Is(err, serve.ErrDiscarded):
					// Admitted, then flushed by the drain before running.
					rec.outcome.Store(outcomeAccepted)
					rec.done.Add(1)
				case errors.Is(err, serve.ErrQueueFull),
					errors.Is(err, serve.ErrOverloaded),
					errors.Is(err, serve.ErrDeadline):
					rec.outcome.Store(outcomeRejected)
				case errors.Is(err, serve.ErrDraining):
					rec.outcome.Store(outcomeRejected)
					return
				default:
					rec.outcome.Store(outcomeRejected)
					res.fail("job %d: unexpected pool submit error: %v", j, err)
				}
			}
		}(g)
	}
}

// checkDrained audits a drained pool's own ledger: every admission
// terminal, nothing left in flight.
func checkDrained(p *serve.Pool, res *Result) serve.Stats {
	st := p.Stats()
	if st.Admitted != st.Completed+st.Cancelled {
		res.fail("pool %s: admitted %d != completed %d + cancelled %d", st.Name, st.Admitted, st.Completed, st.Cancelled)
	}
	if st.InFlight != 0 {
		res.fail("pool %s: %d jobs still in flight after drain", st.Name, st.InFlight)
	}
	return st
}

// checkPoolStats audits one drained pool's serving counters against the
// ledger slice it served.
func checkPoolStats(p *serve.Pool, res *Result, completed, discarded int64) {
	st := checkDrained(p, res)
	if st.Completed != completed {
		res.fail("pool %s: pool counted %d completed, ledger saw %d", st.Name, st.Completed, completed)
	}
	if st.Cancelled != discarded {
		res.fail("pool %s: pool counted %d cancelled, ledger saw %d discarded", st.Name, st.Cancelled, discarded)
	}
	checkReport(p.Final(), res, "pool "+st.Name)
}

// ledgerSplit returns the (completed, discarded) counts for the records
// selected by pick — the pool-side cross-check values.
func ledgerSplit(recs []*jobRec, pick func(j int) bool) (completed, discarded int64) {
	for j, rec := range recs {
		if !pick(j) || rec.outcome.Load() != outcomeAccepted {
			continue
		}
		if rec.body.Load() == 1 {
			completed++
		} else {
			discarded++
		}
	}
	return completed, discarded
}

// streamChurn attaches and detaches small-buffer subscribers against the
// hub until stopped. Each cycle verifies the detach contract: after Close
// returns the event channel drains to a close (never hangs) and the
// delivered count stays frozen — no event lands after a subscriber close.
func streamChurn(hub *stream.Hub, sc *Script, stop <-chan struct{}, res *Result) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		sub := hub.Subscribe(stream.SubOptions{Buf: sc.StreamBuf})
		deadline := time.After(time.Duration(sc.StreamChurnUS) * time.Microsecond)
	read:
		for {
			select {
			case _, ok := <-sub.Events():
				if !ok {
					break read
				}
			case <-deadline:
				break read
			case <-stop:
				break read
			}
		}
		sub.Close()
		frozen := sub.Delivered()
		for range sub.Events() { // buffered leftovers, then the close
		}
		if d := sub.Delivered(); d != frozen {
			res.fail("stream: %d event(s) delivered after subscriber Close returned", d-frozen)
		}
	}
}

// newPool builds a serve.Pool on the script's mesh, quantum, queue caps
// and shed threshold, seeded at source; hub, when set, carries its events.
func newPool(sc *Script, name string, source topo.CoreID, hub *stream.Hub) (*serve.Pool, error) {
	return serve.New(serve.Config{
		Name: name,
		Runtime: wsrt.Config{
			Mesh:           topo.MustMesh(sc.MeshW, sc.MeshH),
			Source:         source,
			Quantum:        time.Duration(sc.QuantumUS) * time.Microsecond,
			SubmitQueueCap: sc.SubmitQueueCap,
		},
		QueueCap:   sc.PoolQueueCap,
		ShedQuanta: sc.ShedQuanta,
		Events:     hub,
	})
}

// terminalAudit holds a pool to exactly-once terminal events: a durable
// subscriber counts completed and cancelled events, and once the pool has
// drained, those seen plus those dropped must equal its admissions.
type terminalAudit struct {
	sub  *stream.Sub
	seen int64
	done chan struct{}
}

func newTerminalAudit(hub *stream.Hub, buf int) *terminalAudit {
	a := &terminalAudit{done: make(chan struct{}), sub: hub.Subscribe(stream.SubOptions{
		Buf:   buf,
		Kinds: []stream.Kind{stream.KindCompleted, stream.KindCancelled},
	})}
	go func() {
		defer close(a.done)
		for range a.sub.Events() {
			a.seen++
		}
	}()
	return a
}

// finish detaches the subscriber after p's drain — every terminal event is
// on the hub by then — and checks the count against p's admissions.
func (a *terminalAudit) finish(p *serve.Pool, res *Result, tag string) {
	a.sub.Close()
	<-a.done
	if admitted := p.Stats().Admitted; a.seen+a.sub.Dropped() != admitted {
		res.fail("%s: %d terminal event(s) seen + %d dropped != %d admitted — terminal events not exactly-once",
			tag, a.seen, a.sub.Dropped(), admitted)
	}
}

// runPool drives a serve.Pool, racing Drain against the submit storm. With
// StreamSubs set it also churns event subscribers against the pool's hub
// and audits terminal-event conservation through a durable subscriber.
func runPool(sc *Script, res *Result) {
	var hub *stream.Hub
	if sc.StreamSubs > 0 || sc.AuditClassEvents {
		hub = stream.NewHub()
	}
	p, err := newPool(sc, "chaos", topo.CoreID(sc.Source), hub)
	if err != nil {
		res.fail("build pool: %v", err)
		return
	}
	recs := newLedger(sc)
	start := time.Now()

	// The class auditor replays the admission log in hub order against the
	// ladder-stamping invariant; its per-class tallies cross-check the
	// pool's ByClass ledger when nothing was dropped.
	var audit *classAudit
	if sc.AuditClassEvents {
		audit = newClassAudit(hub, res)
	}

	var terminal *terminalAudit
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if hub != nil {
		terminal = newTerminalAudit(hub, sc.StreamBuf)
		for i := 0; i < sc.StreamSubs; i++ {
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				streamChurn(hub, sc, churnStop, res)
			}()
		}
	}

	oscDone := make(chan struct{})
	go func() {
		defer close(oscDone)
		oscillate(sc.CapEvents, start, p.SetMaxWorkers)
	}()

	var wg sync.WaitGroup
	poolSubmitJobs(p, sc, recs, func(int) bool { return true }, &wg, res)

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if sc.ShutdownAtUS > 0 {
		if d := time.Duration(sc.ShutdownAtUS)*time.Microsecond - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if err := p.Drain(drainCtx); err != nil {
			res.fail("drain: %v", err)
		}
		wg.Wait()
	} else {
		wg.Wait()
		if err := p.Drain(drainCtx); err != nil {
			res.fail("drain: %v", err)
		}
	}
	<-oscDone
	if hub != nil {
		// Drain has returned, so every terminal event is on the hub (the pool
		// publishes them before releasing the job's slot). Detach everything
		// and let the durable reader finish counting its buffered tail.
		close(churnStop)
		churnWG.Wait()
		terminal.finish(p, res, "stream")
		if audit != nil {
			audit.finish(p)
		}
		hub.Close()
	}
	checkLedger(recs, res)
	completed, discarded := ledgerSplit(recs, func(int) bool { return true })
	checkPoolStats(p, res, completed, discarded)
}

// runTenancy drives two pools under one arbitration mesh: submissions
// interleave with re-arbitration rounds, the first pool drains early while
// the second keeps serving, and after both drain the arbiter must have
// every core back.
func runTenancy(sc *Script, res *Result) {
	arbMesh := topo.MustMesh(sc.MeshW, sc.MeshH)
	ten := serve.NewTenancy(arbMesh, time.Duration(sc.RearbEveryUS)*time.Microsecond)
	p0, err := newPool(sc, "chaos-a", topo.CoreID(sc.Source), nil)
	if err != nil {
		res.fail("build pool a: %v", err)
		return
	}
	// The second tenant anchors at the far corner of the arbitration mesh
	// so the shares start disjoint.
	p1, err := newPool(sc, "chaos-b", topo.CoreID(arbMesh.NumCores()-1), nil)
	if err != nil {
		res.fail("build pool b: %v", err)
		return
	}
	if err := ten.Attach(p0, topo.CoreID(sc.Source)); err != nil {
		res.fail("attach a: %v", err)
		return
	}
	if err := ten.Attach(p1, topo.CoreID(arbMesh.NumCores()-1)); err != nil {
		res.fail("attach b: %v", err)
		return
	}
	ten.Start()
	recs := newLedger(sc)
	start := time.Now()
	toA := func(j int) bool { return j%2 == 0 }
	toB := func(j int) bool { return j%2 == 1 }

	var wg sync.WaitGroup
	poolSubmitJobs(p0, sc, recs, toA, &wg, res)
	poolSubmitJobs(p1, sc, recs, toB, &wg, res)

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Drain the first tenant mid-storm: its submitters flip to rejections,
	// the arbiter reclaims its share, and the survivor keeps serving.
	if d := time.Duration(sc.DrainFirstAtUS)*time.Microsecond - time.Since(start); d > 0 {
		time.Sleep(d)
	}
	if err := p0.Drain(drainCtx); err != nil {
		res.fail("drain a: %v", err)
	}
	wg.Wait()
	if err := p1.Drain(drainCtx); err != nil {
		res.fail("drain b: %v", err)
	}
	// One final round releases the drained tenants; every core must return
	// to the free pool — resource conservation across tenants.
	ten.Rearbitrate()
	ten.Close()
	if free := ten.FreeCores(); free != arbMesh.Usable() {
		res.fail("tenancy: %d of %d cores free after both tenants drained", free, arbMesh.Usable())
	}
	checkLedger(recs, res)
	ca, da := ledgerSplit(recs, toA)
	checkPoolStats(p0, res, ca, da)
	cb, db := ledgerSplit(recs, toB)
	checkPoolStats(p1, res, cb, db)
}
