package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/wsrt"
)

// Config describes a serving pool.
type Config struct {
	// Name labels the pool in metrics and multi-tenant listings.
	Name string
	// Runtime configures the resident work-stealing runtime. A nil
	// Estimator defaults to the Palirria estimator — a serving pool
	// without adaptation would pin its allotment forever. The pool owns
	// Runtime.OnQuantum; a caller-supplied callback is chained after the
	// pool's own bookkeeping.
	Runtime wsrt.Config
	// QueueCap bounds the jobs resident in the pool (queued + running);
	// Submit beyond it returns ErrQueueFull. Default 128.
	QueueCap int
	// ShedQuanta is how many consecutive quanta the filtered desire must
	// sit at the maximum grantable allotment (while the queue is
	// saturated) before the pool sheds load. Default 8.
	ShedQuanta int
	// Metrics, when set, registers the pool's counters and the admission
	// latency histogram (label pool=Name).
	Metrics *obs.Registry
	// Events, when set, publishes the pool's job lifecycle
	// (admitted/started/completed/cancelled/shed) and per-quantum
	// estimator digests on the hub. Publishing never blocks: slow
	// subscribers drop (and count) events, they cannot backpressure
	// Submit or the workers.
	Events *stream.Hub
}

// Pool lifecycle states.
const (
	poolAccepting int32 = iota
	poolDraining
	poolClosed
)

// job states. pending->running->done is the normal path;
// pending->cancelled is a context cancellation or shutdown discard.
const (
	jobPending int32 = iota
	jobRunning
	jobDone
	jobCancelled
)

type job struct {
	id    uint64
	class Class
	// idx is the job's position in an independent-entries submission.
	idx   int
	state atomic.Int32
	done  chan struct{}
}

// Pool is a resident serving pool: one persistent runtime, a bounded
// admission queue, estimator-driven shedding, and a graceful drain.
type Pool struct {
	cfg Config
	rt  *wsrt.Runtime

	// submitBatch is the single runtime hand-off for independent entries —
	// normally rt.SubmitBatch, replaceable by regression tests that pin the
	// pool's admitted accounting against both partial-acceptance shapes of
	// the wsrt contract: (n, ErrSubmitQueueFull) and (n>0, ErrClosed).
	submitBatch func([]wsrt.Job) (int, error)

	// jobSeq hands out the per-pool job ids carried on stream events.
	jobSeq atomic.Uint64

	state atomic.Int32
	// inflight counts resident jobs (queued plus running) and is the
	// admission queue's bound: takeSlots claims against QueueCap at
	// admission, release returns the slot when a job completes or is
	// discarded.
	inflight atomic.Int64
	running  atomic.Int64

	// ladder is the overload ratchet, stepped once per quantum and touched
	// only by the helper goroutine; shedLevel is the level it last
	// returned, published for the admission paths (0 admits everything,
	// level L sheds every class below L; the pool is shedding while it is
	// above 0).
	ladder    shedLadder
	shedLevel atomic.Int32

	lastDesire atomic.Int64

	admitted         atomic.Int64
	completed        atomic.Int64
	cancelled        atomic.Int64
	rejectedFull     atomic.Int64
	rejectedShed     atomic.Int64
	rejectedDeadline atomic.Int64

	// Per-class admission ledger: every class-C admission lands in
	// classAdmitted[C] and ends in classCompleted[C] or the pool-wide
	// cancelled counter; ladder and deadline rejections land in
	// classShed[C].
	classAdmitted  [NumClasses]atomic.Int64
	classShed      [NumClasses]atomic.Int64
	classCompleted [NumClasses]atomic.Int64

	// latHist is always maintained — deadline admission predicts the
	// queue wait from its p99 — but its quantiles surface in Stats only
	// when a metrics registry asked for them (latExported): a pool without
	// Metrics reports zero quantiles to /status and the gossip layer.
	latHist     *obs.Histogram
	latExported bool

	closeOnce sync.Once
	drainedCh chan struct{}
	// idleCh is signalled (buffered, coalescing) whenever inflight drops
	// to zero, so Drain waits event-driven instead of polling.
	idleCh chan struct{}
	final  atomic.Pointer[wsrt.Report]
}

// New builds the pool and starts its runtime in persistent mode. The pool
// is immediately accepting; callers must eventually Drain it.
func New(cfg Config) (*Pool, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 128
	}
	if cfg.ShedQuanta <= 0 {
		cfg.ShedQuanta = 8
	}
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	if cfg.Runtime.Estimator == nil {
		cfg.Runtime.Estimator = core.NewPalirria()
	}
	// The runtime-level queue must never reject a job the pool admitted.
	if cfg.Runtime.SubmitQueueCap < cfg.QueueCap {
		cfg.Runtime.SubmitQueueCap = cfg.QueueCap
	}
	// A runtime sharing a registry with other pools needs its worker
	// series kept distinct; default the label to the pool name.
	if cfg.Runtime.Metrics != nil && len(cfg.Runtime.MetricLabels) == 0 {
		cfg.Runtime.MetricLabels = []obs.Label{{Key: "pool", Value: cfg.Name}}
	}
	p := &Pool{
		cfg:       cfg,
		latHist:   obs.NewHistogram(nil),
		ladder:    shedLadder{shedQuanta: cfg.ShedQuanta, queueCap: cfg.QueueCap},
		drainedCh: make(chan struct{}),
		idleCh:    make(chan struct{}, 1),
	}
	chained := cfg.Runtime.OnQuantum
	cfg.Runtime.OnQuantum = func(d metrics.Decision) {
		p.noteQuantum(d)
		if chained != nil {
			chained(d)
		}
	}
	rt, err := wsrt.New(cfg.Runtime)
	if err != nil {
		return nil, err
	}
	p.rt = rt
	p.submitBatch = rt.SubmitBatch
	if cfg.Metrics != nil {
		p.registerMetrics(cfg.Metrics)
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// Name returns the pool's label.
func (p *Pool) Name() string { return p.cfg.Name }

// publishEv fans one event onto the pool's hub, stamping the pool label
// (no-op without a hub). Hub publishing never blocks, so calling this from
// Submit, the job callbacks and the helper goroutine costs a few atomics.
func (p *Pool) publishEv(ev stream.Event) {
	if p.cfg.Events == nil {
		return
	}
	ev.Pool = p.cfg.Name
	p.cfg.Events.Publish(ev)
}

// noteQuantum is the pool's estimator tap, invoked once per quantum on
// the runtime's helper goroutine: it publishes the quantum's decision
// with the largest grant currently possible, steps the shed ladder and
// stores the level for the admission paths to read.
func (p *Pool) noteQuantum(d metrics.Decision) {
	capacity := p.rt.Capacity()
	p.lastDesire.Store(int64(d.Desired))
	p.publishEv(stream.Event{
		Kind:     stream.KindQuantum,
		Raw:      d.Raw,
		Desire:   d.Desired,
		Granted:  d.Granted,
		Capacity: capacity,
	})
	lvl := p.ladder.step(d.Desired, capacity, int(p.inflight.Load()))
	p.shedLevel.Store(lvl)
}

// noteIdle signals Drain that inflight reached zero. The channel is
// buffered and sends coalesce, so completions never block on it.
func (p *Pool) noteIdle() {
	select {
	case p.idleCh <- struct{}{}:
	default:
	}
}

// Drain gracefully shuts the pool down: admission stops immediately,
// every in-flight job (queued jobs included) is waited for, then the
// runtime is shut down and its workers released. Safe to call from
// several goroutines; all of them return once the drain completes. If ctx
// expires first, Drain returns ctx.Err() with the pool left draining —
// call Drain again to keep waiting.
//
// The wait is event-driven: each completion that empties the pool signals
// idleCh, and a coarse safety tick re-checks the counter so a signal
// consumed by a concurrent Drain caller never strands another.
func (p *Pool) Drain(ctx context.Context) error {
	p.state.CompareAndSwap(poolAccepting, poolDraining)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for p.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-p.idleCh:
		case <-tick.C:
		}
	}
	p.closeOnce.Do(func() {
		rep, err := p.rt.Shutdown()
		if err == nil {
			p.final.Store(rep)
		}
		p.state.Store(poolClosed)
		close(p.drainedCh)
	})
	select {
	case <-p.drainedCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drained reports whether the pool has fully shut down.
func (p *Pool) Drained() bool { return p.state.Load() == poolClosed }

// Final returns the runtime's end-of-life report (timeline, decisions,
// per-worker accounting); nil until the drain completes.
func (p *Pool) Final() *wsrt.Report {
	return p.final.Load()
}

// LiveDesire is the filtered desire of the most recent quantum; before
// the first quantum it falls back to the current allotment size. It is
// the pool's one desire: the re-arbitration loop bids it, and Stats and
// the palirria_pool_desire_workers gauge report it.
func (p *Pool) LiveDesire() int {
	if d := int(p.lastDesire.Load()); d > 0 {
		return d
	}
	return p.rt.AllotmentSize()
}

// SetMaxWorkers imposes (n > 0) or lifts (n <= 0) a dynamic worker cap on
// the pool's runtime; see wsrt.Runtime.SetMaxWorkers.
func (p *Pool) SetMaxWorkers(n int) { p.rt.SetMaxWorkers(n) }

// Capacity returns the largest allotment currently grantable.
func (p *Pool) Capacity() int { return p.rt.Capacity() }

// AllotmentSize returns the current allotment size.
func (p *Pool) AllotmentSize() int { return p.rt.AllotmentSize() }

// Stats is a point-in-time sample of the pool's serving counters and its
// spare-parallelism signal. It is the single record the serving surfaces
// share: /status, /cluster and the gossip layer all render it, so they can
// never disagree about a pool's load.
type Stats struct {
	Name string `json:"name"`
	// Admitted counts jobs that entered the pool; every one of them ends
	// up in exactly one of Completed or Cancelled.
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	// RejectedFull, RejectedShed and RejectedDeadline count Submit
	// rejections by cause.
	RejectedFull     int64 `json:"rejected_full"`
	RejectedShed     int64 `json:"rejected_shed"`
	RejectedDeadline int64 `json:"rejected_deadline,omitempty"`
	// ByClass breaks admissions, ladder/deadline rejections, and
	// completions down by priority class, indexed low/normal/high.
	ByClass [NumClasses]ClassStats `json:"by_class"`
	// InFlight is queued + running; Running is jobs actually executing.
	InFlight int64 `json:"in_flight"`
	Running  int64 `json:"running"`
	Queued   int64 `json:"queued"`
	// Shedding reports the overload latch (ShedLevel > 0); ShedLevel is
	// the ladder position — level L sheds every class below L.
	// Draining/Closed report the lifecycle.
	Shedding  bool  `json:"shedding"`
	ShedLevel int32 `json:"shed_level,omitempty"`
	Draining  bool  `json:"draining"`
	Closed    bool  `json:"closed"`
	// Desire, Allotment and Capacity expose the estimation loop.
	Desire    int `json:"desire"`
	Allotment int `json:"allotment"`
	Capacity  int `json:"capacity"`
	QueueCap  int `json:"queue_cap"`
	// AdmitP50/AdmitP99 are submit-to-start latency quantiles in seconds,
	// interpolated from the admission histogram (zero before the first
	// started job).
	AdmitP50 float64 `json:"admit_p50_seconds"`
	AdmitP99 float64 `json:"admit_p99_seconds"`
	// Spare is the pool's spare estimated parallelism: the maximum
	// grantable allotment (mesh capacity) minus the filtered desire of the
	// last quantum. The granted allotment tracks desire in steady state,
	// so capacity — the bound the allotment grows toward — is the A term
	// that makes A−D a live headroom signal: positive means the estimator
	// wants fewer workers than the pool could still grant, zero means
	// desire is pinned at the grantable maximum (the same condition the
	// shed latch watches). This is the load signal cluster routing steers
	// on (DVS victim ordering lifted to nodes). It is derived from this
	// sample's Capacity and Desire, so the three are never torn, and
	// clamped at zero: desire can transiently exceed capacity during a
	// policy rebuild (the estimator re-learns the shrunk mesh a quantum
	// late), and a negative headroom means "no spare" to every consumer
	// (internal/cluster/pick also tolerates peers that gossip one).
	Spare int `json:"spare"`
}

// ClassStats is one priority class's slice of the admission ledger.
type ClassStats struct {
	Class string `json:"class"`
	// Admitted counts class jobs the runtime accepted; Shed counts ladder
	// and deadline rejections; Completed counts class jobs that ran to
	// completion.
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
}

// Stats samples the pool.
func (p *Pool) Stats() Stats {
	inflight, running := p.inflight.Load(), p.running.Load()
	st, shedLevel := p.state.Load(), p.shedLevel.Load()
	var p50, p99 float64
	if p.latExported {
		p50 = p.latHist.Quantile(0.50)
		p99 = p.latHist.Quantile(0.99)
	}
	out := Stats{
		Name:             p.cfg.Name,
		Admitted:         p.admitted.Load(),
		Completed:        p.completed.Load(),
		Cancelled:        p.cancelled.Load(),
		RejectedFull:     p.rejectedFull.Load(),
		RejectedShed:     p.rejectedShed.Load(),
		RejectedDeadline: p.rejectedDeadline.Load(),
		InFlight:         inflight,
		Running:          running,
		Queued:           max(inflight-running, 0),
		Shedding:         shedLevel > 0,
		ShedLevel:        shedLevel,
		Draining:         st == poolDraining,
		Closed:           st == poolClosed,
		Desire:           p.LiveDesire(),
		Allotment:        p.rt.AllotmentSize(),
		Capacity:         p.rt.Capacity(),
		QueueCap:         p.cfg.QueueCap,
		AdmitP50:         p50,
		AdmitP99:         p99,
	}
	out.Spare = max(out.Capacity-out.Desire, 0)
	for c := Class(0); c < NumClasses; c++ {
		out.ByClass[c] = ClassStats{
			Class:     c.String(),
			Admitted:  p.classAdmitted[c].Load(),
			Shed:      p.classShed[c].Load(),
			Completed: p.classCompleted[c].Load(),
		}
	}
	return out
}

// registerMetrics exposes the pool's serving counters on reg, labelled by
// pool name. The runtime's own worker metrics register separately via
// Config.Runtime.Metrics.
func (p *Pool) registerMetrics(reg *obs.Registry) {
	lbl := obs.Label{Key: "pool", Value: p.cfg.Name}
	count := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	reg.CounterFunc("palirria_pool_admitted_total", "Jobs admitted into the pool.",
		count(&p.admitted), lbl)
	reg.CounterFunc("palirria_pool_completed_total", "Jobs completed.",
		count(&p.completed), lbl)
	reg.CounterFunc("palirria_pool_cancelled_total", "Jobs cancelled or discarded before running.",
		count(&p.cancelled), lbl)
	reg.CounterFunc("palirria_pool_rejected_total", "Submits rejected: admission queue full.",
		count(&p.rejectedFull), lbl, obs.Label{Key: "reason", Value: "full"})
	reg.CounterFunc("palirria_pool_rejected_total", "Submits rejected: load shedding.",
		count(&p.rejectedShed), lbl, obs.Label{Key: "reason", Value: "shed"})
	reg.GaugeFunc("palirria_pool_inflight_jobs", "Jobs resident in the pool (queued + running).",
		count(&p.inflight), lbl)
	reg.GaugeFunc("palirria_pool_queued_jobs", "Jobs admitted but not yet started.",
		func() float64 { return float64(max(p.inflight.Load()-p.running.Load(), 0)) }, lbl)
	reg.GaugeFunc("palirria_pool_shedding", "1 while the overload latch is armed.",
		func() float64 {
			if p.shedLevel.Load() > 0 {
				return 1
			}
			return 0
		}, lbl)
	reg.GaugeFunc("palirria_pool_shed_level", "Shed ladder level: L sheds every class below L.",
		func() float64 { return float64(p.shedLevel.Load()) }, lbl)
	reg.CounterFunc("palirria_pool_rejected_total", "Submits rejected: deadline unmeetable.",
		count(&p.rejectedDeadline), lbl, obs.Label{Key: "reason", Value: "deadline"})
	for c := Class(0); c < NumClasses; c++ {
		cl := obs.Label{Key: "class", Value: c.String()}
		reg.CounterFunc("palirria_pool_class_admitted_total", "Jobs admitted, by priority class.",
			count(&p.classAdmitted[c]), lbl, cl)
		reg.CounterFunc("palirria_pool_class_shed_total", "Ladder and deadline rejections, by priority class.",
			count(&p.classShed[c]), lbl, cl)
		reg.CounterFunc("palirria_pool_class_completed_total", "Jobs completed, by priority class.",
			count(&p.classCompleted[c]), lbl, cl)
	}
	reg.GaugeFunc("palirria_pool_desire_workers", "Filtered desire of the last quantum.",
		func() float64 { return float64(p.LiveDesire()) }, lbl)
	p.latHist = reg.Histogram("palirria_pool_admission_latency_seconds",
		"Time from Submit to job start.", nil, lbl)
	p.latExported = true
}
