// Package obs is the unified observability layer shared by both execution
// platforms: the deterministic simulator (internal/sim) and the real
// goroutine runtime (internal/wsrt).
//
// It has four pillars:
//
//  1. A low-overhead structured event tracer. Each worker owns a
//     single-producer/single-consumer ring buffer of typed scheduler
//     events (spawn, steal, failed probe, task completion, sync block,
//     allotment grant, retirement, quantum boundary). The producer path
//     is lock-free and allocation-free; the nil-tracer fast path is a
//     single pointer comparison so disabled tracing costs nothing
//     measurable on the hot paths.
//  2. Estimator introspection. At every quantum boundary the platforms
//     hand Tracer.Quantum the controller's core.Explanation: the
//     per-worker DMC view (boundary/inner classification, queue region
//     counts, thresholds) or ASTEAL's utilization inputs, together with
//     the raw and filtered desire and the actual grant. Estimation
//     decisions become explainable after the fact instead of being
//     opaque integers.
//  3. Live metrics. A dependency-free Registry renders Prometheus text
//     format, and Serve exposes it on /metrics, beside Go's runtime
//     expvars and net/http/pprof, on an opt-in address.
//  4. Export. A drained trace serializes to Chrome trace_event JSON
//     (chrome://tracing, Perfetto); its Snapshots are the estimator_trace
//     of the simulator's JSON report.
//
// Timestamps are int64 ticks: simulator cycles on the simulator, wall
// nanoseconds on the real runtime. TraceData.TicksPerMicro converts them
// to the microseconds Chrome traces use.
package obs

import (
	"fmt"
	"sort"
	"sync"

	"palirria/internal/core"
)

// Kind classifies a scheduler event.
type Kind uint8

const (
	// KindSpawn: a task was pushed on a worker's queue. Arg is the queue
	// length after the push.
	KindSpawn Kind = iota
	// KindSteal: a task moved from victim (Peer) to thief (Worker).
	KindSteal
	// KindProbeFail: Worker probed victim Peer and found nothing stealable.
	KindProbeFail
	// KindTaskDone: a task completed on Worker.
	KindTaskDone
	// KindBlock: Worker blocked at the sync of a stolen child (and starts
	// leapfrogging).
	KindBlock
	// KindGrant: the system layer granted an allotment at a quantum
	// boundary (possibly unchanged). Arg is the granted size.
	KindGrant
	// KindRetire: a draining worker exited its allotment.
	KindRetire
	// KindQuantum: an estimation quantum boundary. Arg is the desired
	// worker count the controller forwarded to the system layer.
	KindQuantum
	// KindPark: Worker woke from an event-driven park. Arg is the
	// nanoseconds spent blocked (idle, not searching).
	KindPark

	// NumKinds is the number of event kinds.
	NumKinds
)

// String names the kind (also the Chrome trace event name).
func (k Kind) String() string {
	switch k {
	case KindSpawn:
		return "spawn"
	case KindSteal:
		return "steal"
	case KindProbeFail:
		return "probefail"
	case KindTaskDone:
		return "done"
	case KindBlock:
		return "block"
	case KindGrant:
		return "grant"
	case KindRetire:
		return "retire"
	case KindQuantum:
		return "quantum"
	case KindPark:
		return "park"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NoWorker marks the absence of a worker or peer on an event.
const NoWorker int32 = -1

// Event is one recorded scheduler event.
type Event struct {
	// TS is the event time in ticks (cycles or nanoseconds).
	TS int64
	// Kind classifies the event.
	Kind Kind
	// Worker is the acting worker's core id (NoWorker for global events).
	Worker int32
	// Peer is the other party (steal victim, probe target; NoWorker
	// otherwise).
	Peer int32
	// Arg carries kind-specific data (queue length after a spawn, new
	// allotment size for grants, desired workers for quantum boundaries).
	Arg int64
	// Label is the task label or job name where applicable.
	Label string
}

// String renders one line of trace output (palirria-sim -trace N).
func (ev Event) String() string {
	switch ev.Kind {
	case KindSteal:
		return fmt.Sprintf("%12d  %-6s w%-3d <- w%-3d %s", ev.TS, ev.Kind, ev.Worker, ev.Peer, ev.Label)
	case KindProbeFail:
		return fmt.Sprintf("%12d  %-9s w%-3d -> w%-3d", ev.TS, ev.Kind, ev.Worker, ev.Peer)
	case KindGrant:
		return fmt.Sprintf("%12d  %-6s %d workers", ev.TS, ev.Kind, ev.Arg)
	case KindQuantum:
		return fmt.Sprintf("%12d  %-7s %d desired", ev.TS, ev.Kind, ev.Arg)
	default:
		return fmt.Sprintf("%12d  %-6s w%-3d %s", ev.TS, ev.Kind, ev.Worker, ev.Label)
	}
}

// Tracer collects events from many rings plus the per-quantum estimator
// explanations. Rings are registered once (at worker creation, before
// emission starts); registration and recording an explanation take a
// mutex, event emission never does.
type Tracer struct {
	// ringCap is every ring's event capacity (1<<16, rounded up to a
	// power of two by newRing); the package's tests shrink it.
	ringCap       int
	ticksPerMicro float64

	mu      sync.Mutex
	rings   []*Ring
	snaps   []core.Explanation
	workers map[int32]string
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithTicksPerMicro sets the tick-to-microsecond conversion of drained
// traces (1 for simulator cycles, 1000 for wall nanoseconds).
func WithTicksPerMicro(f float64) Option {
	return func(t *Tracer) {
		if f > 0 {
			t.ticksPerMicro = f
		}
	}
}

// NewTracer builds an empty tracer.
func NewTracer(opts ...Option) *Tracer {
	t := &Tracer{ringCap: 1 << 16, ticksPerMicro: 1, workers: map[int32]string{}}
	for _, o := range opts {
		o(t)
	}
	return t
}

// NewRing registers a new ring with the tracer and returns it. overwrite
// selects keep-newest semantics (only safe when emission and draining
// never overlap, e.g. the single-threaded simulator); the default
// drop-newest mode is safe for one concurrent producer per ring.
func (t *Tracer) NewRing(overwrite bool) *Ring {
	r := newRing(t.ringCap, overwrite)
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// SetWorkerName attaches a display name to a worker id (used for the
// Chrome trace thread lanes).
func (t *Tracer) SetWorkerName(worker int32, name string) {
	t.mu.Lock()
	t.workers[worker] = name
	t.mu.Unlock()
}

// Quantum records one estimation quantum's observation: on r, a
// KindQuantum event carrying the filtered desire and a KindGrant event
// carrying the grant, both at ts for worker and labelled label; on the
// tracer, ex with its Job set to label. Both platforms call it once per
// quantum, and only when tracing, so an unobserved run builds no
// explanation. Called far off the hot path, so the mutex is fine.
func (t *Tracer) Quantum(r *Ring, ts int64, worker int32, label string, ex core.Explanation) {
	ev := Event{TS: ts, Kind: KindQuantum, Worker: worker, Peer: NoWorker, Arg: int64(ex.FilteredDesire), Label: label}
	r.Emit(ev)
	// Every quantum, even unchanged: rings keep only the newest events,
	// and the Chrome allotment counter track must have samples inside
	// whatever window survives.
	ev.Kind, ev.Arg = KindGrant, int64(ex.Granted)
	r.Emit(ev)
	ex.Job = label
	t.mu.Lock()
	t.snaps = append(t.snaps, ex)
	t.mu.Unlock()
}

// Drain collects every ring's pending events, merges them into time
// order, and returns them with the snapshots and worker names. It is safe
// to call concurrently with emission on drop-newest rings; events emitted
// during the drain may or may not be included.
func (t *Tracer) Drain() *TraceData {
	t.mu.Lock()
	rings := append([]*Ring(nil), t.rings...)
	snaps := append([]core.Explanation(nil), t.snaps...)
	names := make(map[int32]string, len(t.workers))
	for k, v := range t.workers {
		names[k] = v
	}
	t.mu.Unlock()

	d := &TraceData{
		Snapshots:     snaps,
		WorkerNames:   names,
		TicksPerMicro: t.ticksPerMicro,
	}
	for _, r := range rings {
		r.Drain(func(ev Event) { d.Events = append(d.Events, ev) })
		d.Dropped += r.Dropped()
	}
	sort.SliceStable(d.Events, func(i, j int) bool {
		if d.Events[i].TS != d.Events[j].TS {
			return d.Events[i].TS < d.Events[j].TS
		}
		return d.Events[i].Worker < d.Events[j].Worker
	})
	return d
}

// TraceData is a drained, time-ordered trace ready for export.
type TraceData struct {
	// Events in non-decreasing TS order.
	Events []Event
	// Snapshots are the per-quantum estimator explanations.
	Snapshots []core.Explanation
	// WorkerNames maps worker ids to display names.
	WorkerNames map[int32]string
	// Dropped counts events lost to full rings.
	Dropped int64
	// TicksPerMicro converts TS ticks to microseconds (1 for simulator
	// cycles displayed as µs, 1000 for wall nanoseconds).
	TicksPerMicro float64
}

// Counts tallies events per kind (diagnostics and tests).
func (d *TraceData) Counts() [NumKinds]int64 {
	var c [NumKinds]int64
	for _, ev := range d.Events {
		if int(ev.Kind) < len(c) {
			c[ev.Kind]++
		}
	}
	return c
}
