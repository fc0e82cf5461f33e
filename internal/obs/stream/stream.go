// Package stream turns the serving stack's signals — serve.Pool job
// transitions, per-quantum estimator snapshots, and cluster membership and
// routing decisions — into a typed broadcast event stream with bounded
// per-subscriber buffers.
//
// The design rule is that a slow consumer can never backpressure the
// scheduler: Publish never blocks and never waits on a subscriber. Each
// subscription owns a bounded buffer; when it is full the event is
// dropped *for that subscriber* and counted exactly, so a consumer can
// always reconcile what it saw against what happened
// (Delivered()+Dropped() == events matching its filter while it was
// subscribed). WriteJSONL turns one subscription into an event log.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/obs"
)

// Kind classifies a stream event.
type Kind uint8

const (
	// KindAdmitted: a job entered a serving pool (Job is its id).
	KindAdmitted Kind = iota
	// KindStarted: an admitted job began executing on a worker.
	KindStarted
	// KindCompleted: a job and its whole task tree finished.
	KindCompleted
	// KindCancelled: a job was cancelled or discarded before running.
	KindCancelled
	// KindShed: a submission was rejected (Reason: "full" or "shed").
	KindShed
	// KindQuantum: one estimation quantum (Raw/Desire/Granted/Capacity).
	KindQuantum
	// KindPeerUp: a cluster peer was first seen, or recovered from
	// suspicion (Node is the peer id).
	KindPeerUp
	// KindPeerSuspect: a peer missed heartbeats long enough to be
	// suspected (Node is the peer id, Arg the silent nanoseconds).
	KindPeerSuspect
	// KindPeerDead: a suspected peer was confirmed dead (Node is the peer
	// id, Arg the silent nanoseconds).
	KindPeerDead
	// KindRouted: the router steered a submission to Node (Arg is the
	// batch size, Detail the sticky key when one applied).
	KindRouted
	// KindFailover: an attempt against Node failed (Reason carries the
	// failure cause) and the submission goes on to another node; the next
	// KindRouted event for it names the new node.
	KindFailover
	// KindDeadlineShed: a submission was rejected because the estimator's
	// desire plus the observed submit-to-start p99 predicted the job could
	// not start before its deadline (Detail names the class, Arg the
	// predicted wait in nanoseconds).
	KindDeadlineShed

	// NumKinds is the number of stream event kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	KindAdmitted:     "admitted",
	KindStarted:      "started",
	KindCompleted:    "completed",
	KindCancelled:    "cancelled",
	KindShed:         "shed",
	KindQuantum:      "quantum",
	KindPeerUp:       "peer-up",
	KindPeerSuspect:  "peer-suspect",
	KindPeerDead:     "peer-dead",
	KindRouted:       "routed",
	KindFailover:     "failover",
	KindDeadlineShed: "deadline-shed",
}

// String names the kind (also the SSE event name on the wire).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the wire name (unknown names fail).
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("stream: bad kind %s", b)
	}
	kk, ok := ParseKind(string(b[1 : len(b)-1]))
	if !ok {
		return fmt.Errorf("stream: unknown kind %s", b)
	}
	*k = kk
	return nil
}

// Event is one typed stream record. Only the fields relevant to the kind
// are set; the zero values are omitted on the wire.
type Event struct {
	// Seq is the hub-assigned publication sequence number (gaps on a
	// subscription mean filtered or dropped events).
	Seq uint64 `json:"seq"`
	// TS is the event time in wall nanoseconds (UnixNano).
	TS int64 `json:"ts_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Pool labels the originating pool / runtime.
	Pool string `json:"pool,omitempty"`
	// Job is the pool-assigned job id for lifecycle events.
	Job uint64 `json:"job,omitempty"`
	// Reason qualifies KindShed ("full" or "shed") and KindCancelled, and
	// carries the failure cause on KindFailover.
	Reason string `json:"reason,omitempty"`
	// Arg is the kind's numeric payload: the shed-ladder level on
	// admitted and shed events, the predicted wait in nanoseconds on
	// KindDeadlineShed, the silent nanoseconds on peer-suspect/peer-dead,
	// and the batch size on routed/failover events.
	Arg int64 `json:"arg,omitempty"`
	// Detail names the job's priority class on admitted, shed and
	// deadline-shed events, and the sticky key, when one applied, on
	// KindRouted.
	Detail string `json:"detail,omitempty"`
	// Node identifies the cluster peer on peer-up/peer-suspect/peer-dead
	// events, and the chosen (or failed) node on routed/failover events.
	Node string `json:"node,omitempty"`
	// Estimator payload on KindQuantum: desire before and after the
	// false-positive filter, the actual grant, and the grantable maximum.
	Raw      int `json:"raw,omitempty"`
	Desire   int `json:"desire,omitempty"`
	Granted  int `json:"granted,omitempty"`
	Capacity int `json:"capacity,omitempty"`
}

// Sub is one bounded subscription to a Hub.
type Sub struct {
	hub  *Hub
	ch   chan Event
	pool string
	job  uint64
	mask uint32 // bitmask of subscribed kinds; 0 = all

	delivered atomic.Int64
	dropped   atomic.Int64
	closeOnce sync.Once
}

// SubOptions filter and size a subscription.
type SubOptions struct {
	// Buf bounds the subscription's buffer (default 256). When full,
	// further matching events are dropped and counted.
	Buf int
	// Kinds restricts delivery to the listed kinds; empty means all.
	Kinds []Kind
	// Job restricts delivery to one job id (0 means all). Events without
	// a job id (quantum, shed, cluster events) are excluded by a job filter.
	Job uint64
	// Pool restricts delivery to one pool label ("" means all).
	Pool string
}

// Events is the subscription's receive channel. It is closed when the
// subscription (or the hub) is closed; events buffered before the close
// are still delivered.
func (s *Sub) Events() <-chan Event { return s.ch }

// Delivered counts events placed in the subscription's buffer.
func (s *Sub) Delivered() int64 { return s.delivered.Load() }

// Dropped counts matching events discarded because the buffer was full.
// Delivered()+Dropped() equals exactly the number of published events
// matching the filter during the subscription's lifetime.
func (s *Sub) Dropped() int64 { return s.dropped.Load() }

// Close unregisters the subscription and closes its channel. After Close
// returns, no further event is delivered or counted; events already
// buffered remain readable until the channel reports closed. Safe to
// call more than once and concurrently with Publish.
func (s *Sub) Close() { s.closeOnce.Do(func() { s.hub.remove(s) }) }

func (s *Sub) match(ev *Event) bool {
	if s.mask != 0 && s.mask&(1<<ev.Kind) == 0 {
		return false
	}
	if s.job != 0 && ev.Job != s.job {
		return false
	}
	if s.pool != "" && ev.Pool != s.pool {
		return false
	}
	return true
}

// Hub is a broadcast fan-out from the runtime's signal sources to any
// number of bounded subscribers. Publish is non-blocking and safe from
// any goroutine; with no subscribers it is two atomic operations.
type Hub struct {
	mu     sync.RWMutex
	subs   []*Sub
	closed bool

	nsubs     atomic.Int32
	seq       atomic.Uint64
	published atomic.Int64
	dropped   atomic.Int64
}

// NewHub builds an empty hub.
func NewHub() *Hub { return &Hub{} }

// Publish assigns a sequence number and fans ev out to every matching
// subscriber, dropping (and counting) at full buffers instead of
// blocking. A zero TS is stamped with the current wall clock.
func (h *Hub) Publish(ev Event) {
	ev.Seq = h.seq.Add(1)
	h.published.Add(1)
	if h.nsubs.Load() == 0 {
		return
	}
	if ev.TS == 0 {
		ev.TS = time.Now().UnixNano()
	}
	// The read lock pins the subscriber set: a Sub still in it cannot
	// have its channel closed (remove closes under the write lock), so
	// the non-blocking send below can never hit a closed channel.
	h.mu.RLock()
	for _, s := range h.subs {
		if !s.match(&ev) {
			continue
		}
		select {
		case s.ch <- ev:
			s.delivered.Add(1)
		default:
			s.dropped.Add(1)
			h.dropped.Add(1)
		}
	}
	h.mu.RUnlock()
}

// Subscribe registers a new bounded subscription. Subscribing to a
// closed hub returns a subscription whose channel is already closed.
func (h *Hub) Subscribe(opt SubOptions) *Sub {
	if opt.Buf <= 0 {
		opt.Buf = 256
	}
	var mask uint32
	for _, k := range opt.Kinds {
		if int(k) < int(NumKinds) {
			mask |= 1 << k
		}
	}
	s := &Sub{
		hub:  h,
		ch:   make(chan Event, opt.Buf),
		pool: opt.Pool,
		job:  opt.Job,
		mask: mask,
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(s.ch)
		return s
	}
	h.subs = append(h.subs, s)
	h.nsubs.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return s
}

// remove unregisters s and closes its channel — but only if s is still
// in the set, so a subscription torn down by Hub.Close is not closed
// twice. Closing under the write lock is what makes Publish's send safe:
// no publisher holds the read lock here, and after the unlock none will
// find s in the set.
func (h *Hub) remove(s *Sub) {
	h.mu.Lock()
	for i, cur := range h.subs {
		if cur == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			h.nsubs.Store(int32(len(h.subs)))
			close(s.ch)
			break
		}
	}
	h.mu.Unlock()
}

// Close closes every subscription and marks the hub closed; later
// Publish calls still count but deliver nowhere, and later Subscribe
// calls return pre-closed subscriptions.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := h.subs
	h.subs = nil
	h.nsubs.Store(0)
	for _, s := range subs {
		close(s.ch)
	}
	h.mu.Unlock()
}

// Subscribers reports the current subscription count.
func (h *Hub) Subscribers() int { return int(h.nsubs.Load()) }

// Published reports the total events published (delivered or not).
func (h *Hub) Published() int64 { return h.published.Load() }

// DroppedTotal reports events dropped across all subscribers.
func (h *Hub) DroppedTotal() int64 { return h.dropped.Load() }

// Register exposes the hub's counters on a metrics registry.
func (h *Hub) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.CounterFunc("palirria_stream_published_total",
		"Events published into the stream hub.",
		func() float64 { return float64(h.Published()) }, labels...)
	reg.CounterFunc("palirria_stream_dropped_total",
		"Events dropped at full subscriber buffers, across all subscribers.",
		func() float64 { return float64(h.DroppedTotal()) }, labels...)
	reg.GaugeFunc("palirria_stream_subscribers",
		"Live stream subscriptions.",
		func() float64 { return float64(h.Subscribers()) }, labels...)
}
