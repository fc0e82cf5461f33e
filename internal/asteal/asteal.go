// Package asteal implements the ASTEAL estimator of Agrawal, He, Hsu and
// Leiserson ("Adaptive scheduling with parallelism feedback", PPoPP'06;
// expanded in TOCS 2008), the baseline the paper compares Palirria against.
//
// ASTEAL is runtime-specific: it measures the cycles each worker wastes —
// searching for work plus conducting successful steals — sums them over the
// allotment, and compares the sum against a utilization threshold at the
// end of every quantum. Unlike Palirria it works with any victim selection
// policy, and unlike Palirria its criteria describe the allotment's past
// efficiency rather than the work remaining in the queues.
package asteal

import "palirria/internal/core"

// Default parameters from the A-STEAL papers: δ is the utilization
// threshold (a quantum is inefficient when more than (1-δ) of the
// allotment's cycles were wasted is the usual presentation; equivalently
// wasted > (1-δ)·total), and ρ is the responsiveness — the multiplicative
// step applied to the desire.
const (
	// DefaultDelta is the utilization threshold δ.
	DefaultDelta = 0.9
	// DefaultRho is the responsiveness ρ.
	DefaultRho = 2.0
)

// ASteal is the estimator state. It maintains a real-valued desire that
// grows multiplicatively while the workload is efficient and satisfied and
// shrinks multiplicatively while it is inefficient (§3.1):
//
//	inefficient             → desire /= ρ  (decrease)
//	efficient and satisfied → desire *= ρ  (increase)
//	efficient and deprived  → unchanged    (the system is congested)
//
// The workload is deprived when the previous request was not fully granted;
// otherwise it is satisfied.
type ASteal struct {
	// Delta is the utilization threshold δ in (0, 1).
	Delta float64
	// Rho is the responsiveness ρ > 1.
	Rho float64

	desire     float64
	lastDesire int
	granted    int
	started    bool

	// lastInputs records the most recent quantum's classification inputs
	// for Introspect.
	lastInputs struct {
		wasted, total int64
		inefficient   bool
		satisfied     bool
	}
}

var _ core.Estimator = (*ASteal)(nil)
var _ core.Introspector = (*ASteal)(nil)

// New returns an ASTEAL estimator with the default parameters.
func New() *ASteal {
	return &ASteal{Delta: DefaultDelta, Rho: DefaultRho}
}

// Name implements core.Estimator.
func (a *ASteal) Name() string { return "asteal" }

// Estimate implements core.Estimator: classify the ending quantum and step
// the desire.
func (a *ASteal) Estimate(s *core.Snapshot) int {
	cur := s.Allotment.Size()
	if !a.started {
		a.desire = float64(cur)
		a.lastDesire = cur
		a.granted = cur
		a.started = true
	}

	// Sum the wasted cycles over all granted workers and compare against
	// the normalized quantum length: total worker-cycles available this
	// quantum is |allotment| * quantum.
	var wasted int64
	for _, id := range s.Allotment.Members() {
		if ws := s.Workers[id]; ws != nil {
			wasted += ws.WastedCycles
		}
	}
	total := int64(cur) * s.QuantumCycles
	inefficient := total > 0 && float64(wasted) > (1-a.Delta)*float64(total)
	satisfied := a.granted >= a.lastDesire
	a.lastInputs.wasted, a.lastInputs.total = wasted, total
	a.lastInputs.inefficient, a.lastInputs.satisfied = inefficient, satisfied

	switch {
	case inefficient:
		// The workload could not utilize its allotment: shrink the desire.
		// The secondary classification is irrelevant here (§3.1).
		a.desire /= a.Rho
	case satisfied:
		// Efficient and satisfied: the workload used everything it asked
		// for; probe for more.
		a.desire *= a.Rho
	default:
		// Efficient and deprived: the system is probably congested; leave
		// the desire unchanged and re-test next quantum.
	}
	if a.desire < 1 {
		a.desire = 1
	}
	if max := float64(s.Allotment.Mesh().Usable()); a.desire > max {
		a.desire = max
	}
	a.lastDesire = int(a.desire + 0.5)
	return a.lastDesire
}

// Granted implements core.Estimator: record the system's decision for the
// satisfied/deprived classification of the next quantum.
func (a *ASteal) Granted(workers int) { a.granted = workers }

// Desire returns the current real-valued desire (for tests and traces).
func (a *ASteal) Desire() float64 { return a.desire }

// Introspect implements core.Introspector: it records the utilization
// inputs behind the last Estimate. Inputs: wasted_cycles, total_cycles,
// inefficient (0/1), satisfied (0/1), desire (the real-valued state),
// delta, rho. The decision is the Controller's default, the direction of
// the raw desire.
func (a *ASteal) Introspect(s *core.Snapshot, ex *core.Explanation) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	ex.Inputs = map[string]float64{
		"wasted_cycles": float64(a.lastInputs.wasted),
		"total_cycles":  float64(a.lastInputs.total),
		"inefficient":   b2f(a.lastInputs.inefficient),
		"satisfied":     b2f(a.lastInputs.satisfied),
		"desire":        a.desire,
		"delta":         a.Delta,
		"rho":           a.Rho,
	}
}
