package obs

import "palirria/internal/core"

// EstimatorSnapshot is one quantum's complete estimation record: what the
// estimator saw, what it concluded, and what the system granted.
type EstimatorSnapshot struct {
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
	Workers []core.IntrospectedWorker `json:"workers,omitempty"`
	// Inputs carries estimator-specific scalar inputs: ASTEAL records
	// wasted/total cycles, its efficiency and satisfaction verdicts
	// (0/1), and the real-valued desire; Palirria records the X and Z
	// set sizes it inspected.
	Inputs map[string]float64 `json:"inputs,omitempty"`
}

// Explain builds the introspection record of the quantum c just stepped
// over snap, given the size the system granted: the raw and filtered
// desire, plus the estimator's annotated view when it implements
// core.Introspector. Both platforms call it; the simulator also labels
// the record's Job.
func Explain(c *core.Controller, snap *core.Snapshot, granted int) EstimatorSnapshot {
	info := c.Last()
	prev := snap.Allotment.Size()
	es := EstimatorSnapshot{
		Time:           snap.Time,
		Estimator:      c.Est.Name(),
		Allotment:      prev,
		Decision:       core.DecisionOf(prev, info.Raw).String(),
		RawDesire:      info.Raw,
		FilteredDesire: info.Filtered,
		Granted:        granted,
	}
	if ip, ok := c.Est.(core.Introspector); ok {
		in := ip.Introspect(snap)
		es.Decision = in.Decision.String()
		es.Inputs = in.Inputs
		es.Workers = in.Workers
	}
	return es
}
