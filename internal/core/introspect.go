package core

import "palirria/internal/topo"

// Explanation is one quantum's complete estimation record: what the
// estimator saw, what it concluded, and what the system granted. Its JSON
// names are the estimator-trace wire format (the simulator report's
// estimator_trace).
type Explanation struct {
	// Time of the quantum boundary, in ticks.
	Time int64 `json:"time"`
	// Job labels the application (multiprogrammed runs).
	Job string `json:"job,omitempty"`
	// Estimator names the deciding estimator ("palirria", "asteal").
	Estimator string `json:"estimator"`
	// Allotment is the granted size the estimator observed.
	Allotment int `json:"allotment"`
	// Decision is the coarse direction ("increase", "keep", "decrease").
	Decision string `json:"decision"`
	// RawDesire is the estimator's unfiltered answer; FilteredDesire what
	// the false-positive filter forwarded to the system layer.
	RawDesire      int `json:"raw_desire"`
	FilteredDesire int `json:"filtered_desire"`
	// Granted is the allotment size the system layer actually provided
	// for the next quantum.
	Granted int `json:"granted"`
	// Workers is the per-worker view (DMC inputs, classes, thresholds).
	Workers []IntrospectedWorker `json:"workers,omitempty"`
	// Inputs carries estimator-specific scalar inputs: ASTEAL records
	// wasted/total cycles, its efficiency and satisfaction verdicts
	// (0/1), and the real-valued desire; Palirria records the X and Z
	// set sizes it inspected.
	Inputs map[string]float64 `json:"inputs,omitempty"`
}

// IntrospectedWorker is one worker's state annotated with everything the
// estimator derived from it: the DVS class and the DMC threshold for
// Palirria, the wasted-cycle contribution for ASTEAL.
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

// Introspector is the optional estimator extension that explains its
// decisions: Introspect annotates the quantum's Explanation in place with
// the estimator's decision and inputs and, per worker, whatever it derived
// (the Controller has filled the snapshot readings). Introspect must not
// disturb estimator state beyond what a repeated Decide would, and is only
// called at quantum boundaries.
type Introspector interface {
	Introspect(s *Snapshot, ex *Explanation)
}

// Explain builds the Explanation of the quantum last Recorded over s: the
// raw and filtered desire and the grant, and, when the estimator is an
// Introspector, one entry per allotment member in Members() order,
// annotated by the estimator.
func (c *Controller) Explain(s *Snapshot) Explanation {
	d := c.cur
	prev := s.Allotment.Size()
	ex := Explanation{
		Time:           s.Time,
		Estimator:      c.Est.Name(),
		Allotment:      prev,
		Decision:       DecisionOf(prev, d.Raw).String(),
		RawDesire:      d.Raw,
		FilteredDesire: d.Desired,
		Granted:        d.Granted,
	}
	ip, ok := c.Est.(Introspector)
	if !ok {
		return ex
	}
	for _, id := range s.Allotment.Members() {
		iw := IntrospectedWorker{ID: id}
		if ws := s.Workers[id]; ws != nil {
			iw.QueueLen = ws.QueueLen
			iw.MaxQueueLen = ws.MaxQueueLen
			iw.Busy = ws.Busy
			iw.Draining = ws.Draining
			iw.WastedCycles = ws.WastedCycles
		}
		ex.Workers = append(ex.Workers, iw)
	}
	ip.Introspect(s, &ex)
	return ex
}

var _ Introspector = (*Palirria)(nil)

// Introspect implements Introspector: it re-evaluates the DMC and
// annotates every allotment member with its class and, for X workers, its
// threshold, making the increase/decrease verdicts checkable by hand.
// Inputs: x_workers, z_workers, inspected.
func (p *Palirria) Introspect(s *Snapshot, ex *Explanation) {
	ex.Decision = p.Decide(s).String()
	ex.Inputs = map[string]float64{
		"x_workers": float64(len(s.Class.X())),
		"z_workers": float64(len(s.Class.Z())),
		"inspected": float64(p.lastInspected),
	}
	for i := range ex.Workers {
		iw := &ex.Workers[i]
		c := s.Class.Class(iw.ID)
		iw.Class = c.String()
		if c.IsX() {
			iw.ThresholdL = p.ThresholdL(s, iw.ID)
		}
	}
}
