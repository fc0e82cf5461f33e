package core

import "palirria/internal/topo"

// Palirria implements the paper's estimator. It requires Deterministic
// Victim Selection: DVS makes the distribution and concentration of tasks
// across the allotment predictable, which is what lets simple conditions on
// the task-queue sizes of two small worker subsets classify the utilization
// state of the whole workload (§3.2).
//
// The Diaspora Malleability Conditions (Claim 1, §4.1.1):
//
//	increase d  ⇔  µ(Q_i) > L_i  for every worker i in class X
//	decrease d  ⇔  µ(Q_i) = 0    for every worker i in class Z
//	balanced    otherwise
//
// with L_i bounded by µ(O_i), the number of outer-zone workers that steal
// from i. L_i = µ(O_i) guarantees that, at the moment of the increase,
// every prospective new worker has a task it can immediately steal; if
// those tasks are leaves the allotment shrinks again next quantum, and if
// not, the load flows outward fast, generating stealable work farther from
// the source.
//
// Because the queue sizes are maintained anyway by the spawn and sync
// operations, and the allotment carries its classification, O_i sets and
// neighbouring zone sizes from construction, evaluating the DMC costs a
// handful of comparisons per quantum and allocates nothing — the
// low-overhead property the paper claims over cycle-counter estimators.
// EstimateCost in this package exposes the number of workers inspected so
// the overhead ablation can report it.
type Palirria struct {
	// LOffset tunes the threshold: L_i = µ(O_i) + LOffset. The paper notes
	// values like µ(O_i)+1 ("but not constant") tune the model's tolerance.
	// Zero reproduces the paper's configuration.
	LOffset int

	lastInspected int
}

var _ Estimator = (*Palirria)(nil)

// NewPalirria returns a Palirria estimator with the paper's configuration
// (L_i = µ(O_i)).
func NewPalirria() *Palirria { return &Palirria{} }

// Name implements Estimator.
func (p *Palirria) Name() string { return "palirria" }

// Estimate implements Estimator by evaluating the DMC: the allotment's
// size one zone out on an increase, one zone in on a decrease.
func (p *Palirria) Estimate(s *Snapshot) int {
	switch p.Decide(s) {
	case Increase:
		return s.Allotment.GrownSize()
	case Decrease:
		return s.Allotment.ShrunkSize()
	}
	return s.Allotment.Size()
}

// Granted implements Estimator. Palirria derives nothing from the grant:
// its conditions are workload-specific, not runtime-specific.
func (p *Palirria) Granted(workers int) {}

// Decide evaluates the Diaspora Malleability Conditions on the snapshot.
func (p *Palirria) Decide(s *Snapshot) Decision {
	inspected := 0

	// Decrease condition: the bag of every worker in Z is empty — no
	// queued tasks and nothing in execution, i.e. the outermost zone is
	// found underutilized and can be removed without risking performance
	// (§4.1.1). Evaluated first: when both conditions hold simultaneously
	// (possible only for X∩Z members on minimal allotments with empty
	// queues) the workload is by definition not over-utilized.
	decrease := true
	for _, w := range s.Class.Z() {
		inspected++
		ws := s.Workers[w]
		if ws == nil {
			continue // not yet bootstrapped: treat as empty
		}
		if ws.QueueLen != 0 || ws.Busy {
			decrease = false
			break
		}
	}
	if decrease && len(s.Class.Z()) > 0 {
		p.lastInspected = inspected
		return Decrease
	}

	// Increase condition: µ(Q_i) > L_i for every worker in X, where
	// L_i = µ(O_i) + LOffset. The runtime maintains the quantum's µ(Q)
	// high-water mark during spawn operations; the condition holds when
	// work flowed through every X worker beyond its threshold during the
	// quantum.
	increase := true
	for _, w := range s.Class.X() {
		inspected++
		ws := s.Workers[w]
		if ws == nil {
			increase = false
			break
		}
		l := len(s.Class.OuterVictims(w)) + p.LOffset
		if ws.MaxQueueLen <= l {
			increase = false
			break
		}
	}
	p.lastInspected = inspected
	if increase && len(s.Class.X()) > 0 {
		return Increase
	}
	return Keep
}

// EstimateCost returns the number of workers the last Decide inspected —
// the estimation overhead metric for the ablation benchmarks. It is always
// at most |X| + |Z|, a small, specific subset of the allotment.
func (p *Palirria) EstimateCost() int { return p.lastInspected }

// ThresholdL returns L_i for worker w under this configuration. Exposed
// for tests and the L-sensitivity ablation.
func (p *Palirria) ThresholdL(s *Snapshot, w topo.CoreID) int {
	return len(s.Class.OuterVictims(w)) + p.LOffset
}
