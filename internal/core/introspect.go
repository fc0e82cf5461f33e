package core

import "palirria/internal/topo"

// IntrospectedWorker is one worker's state annotated with everything the
// estimator derived from it: the DVS class and the DMC threshold for
// Palirria, the wasted-cycle contribution for ASTEAL. The JSON names are
// the estimator-trace wire format (obs.EstimatorSnapshot).
type IntrospectedWorker struct {
	// ID is the worker's core.
	ID topo.CoreID `json:"worker"`
	// Class is the DVS region label ("s", "X", "Z", "XZ", "F"); empty for
	// estimators without a classification.
	Class string `json:"class,omitempty"`
	// QueueLen and MaxQueueLen are µ(Q) at the boundary and its
	// high-water mark (see WorkerSnapshot).
	QueueLen    int `json:"queue_len"`
	MaxQueueLen int `json:"max_queue_len"`
	// ThresholdL is L_i = µ(O_i)+offset for workers the increase
	// condition inspects (0 otherwise).
	ThresholdL int `json:"threshold_l,omitempty"`
	// Busy and Draining mirror the snapshot flags.
	Busy     bool `json:"busy"`
	Draining bool `json:"draining,omitempty"`
	// WastedCycles is the quantum's wasted work (see WorkerSnapshot).
	WastedCycles int64 `json:"wasted_cycles"`
}

// Introspection explains one estimate: the per-worker view the estimator
// evaluated and the scalar inputs behind its decision.
type Introspection struct {
	// Decision is the coarse direction the estimator concluded.
	Decision Decision
	// Workers is the annotated per-worker view over the allotment.
	Workers []IntrospectedWorker
	// Inputs carries estimator-specific scalars (see each estimator's
	// Introspect for the key set).
	Inputs map[string]float64
}

// Introspector is the optional estimator extension the observability
// layer drives: estimators that can explain their decisions implement it.
// Introspect must not disturb estimator state beyond what a repeated
// Decide would, and is only called at quantum boundaries.
type Introspector interface {
	Introspect(s *Snapshot) *Introspection
}

var _ Introspector = (*Palirria)(nil)

// Introspect implements Introspector: it re-evaluates the DMC and
// annotates every allotment member with its class, queue counts and
// threshold, making the increase/decrease verdicts checkable by hand.
// Inputs: x_workers, z_workers, inspected.
func (p *Palirria) Introspect(s *Snapshot) *Introspection {
	in := &Introspection{
		Decision: p.Decide(s),
		Inputs: map[string]float64{
			"x_workers": float64(len(s.Class.X())),
			"z_workers": float64(len(s.Class.Z())),
			"inspected": float64(p.lastInspected),
		},
	}
	for _, id := range s.Allotment.Members() {
		iw := IntrospectedWorker{ID: id, Class: s.Class.Class(id).String()}
		if ws := s.Workers[id]; ws != nil {
			iw.QueueLen = ws.QueueLen
			iw.MaxQueueLen = ws.MaxQueueLen
			iw.Busy = ws.Busy
			iw.Draining = ws.Draining
			iw.WastedCycles = ws.WastedCycles
		}
		if s.Class.Class(id).IsX() {
			iw.ThresholdL = p.ThresholdL(s, id)
		}
		in.Workers = append(in.Workers, iw)
	}
	return in
}
