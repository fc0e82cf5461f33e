// Package sysched is the system layer of the paper's two-level scheduling
// architecture: it owns the mapping from estimator requests to actual
// worker grants.
//
// The system scheduler adds and removes workers in whole zones (§4.1/§5):
// allotment sizes step through the zone series of the topology (5, 12, 20,
// 27 on the 32-core platform; 5, 13, 24, 35, 42, 45 on the 48-core one).
// In the paper's evaluation the OS always satisfies increment requests up
// to the total number of available cores; Manager reproduces that policy
// for a single application. Arbiter extends it to multiprogrammed
// deployments (paper Fig. 2), where competing applications receive
// incomplete allotments.
package sysched

import (
	"fmt"
	"sync/atomic"

	"palirria/internal/topo"
)

// Manager grants zone-granular allotments to a single application.
type Manager struct {
	// zones[d-1] is the complete allotment of diaspora d, built once by
	// topo.Zones up to the diaspora cap; every grant is one of its entries.
	zones []*topo.Allotment
	// current is atomic so Current is safe from any goroutine: Grant runs
	// on the runtime's estimation helper while chaos/serving layers read
	// the grant concurrently.
	current atomic.Pointer[topo.Allotment]
	// workerCap is a dynamic worker-count ceiling imposed from above (the
	// multiprogramming arbiter); 0 means uncapped. It is atomic because the
	// re-arbitration loop writes it while the estimation helper calls Grant.
	workerCap atomic.Int64
}

// NewManager creates a manager whose application starts with the complete
// allotment of diaspora initialD and grows to at most maxD. initialD 0
// means 1, the minimal allotment (zone 1 plus the source) the adaptive
// implementations start with. maxD 0 means the mesh maximum; a larger one
// is clamped to it. The paper's evaluation caps the simulator platform at
// d=4 (27 workers) and the NUMA platform at d=6 (45 workers).
func NewManager(mesh *topo.Mesh, source topo.CoreID, initialD, maxD int) (*Manager, error) {
	zones, err := topo.Zones(mesh, source, maxD)
	if err != nil {
		return nil, err
	}
	if initialD == 0 {
		initialD = 1
	}
	if initialD < 1 || initialD > len(zones) {
		return nil, fmt.Errorf("sysched: initial diaspora %d outside [1, %d]", initialD, len(zones))
	}
	m := &Manager{zones: zones}
	m.current.Store(zones[initialD-1])
	return m, nil
}

// Current returns the granted allotment. Safe from any goroutine; the
// returned allotment is immutable.
func (m *Manager) Current() *topo.Allotment { return m.current.Load() }

// SetWorkerCap imposes (or, with n <= 0, lifts) a dynamic worker-count
// ceiling on future grants. Grants stay zone-granular: the effective limit
// is the largest complete allotment not exceeding the cap, with the
// minimal zone-1 allotment as the floor. Safe to call concurrently with
// Grant.
func (m *Manager) SetWorkerCap(n int) {
	if n < 0 {
		n = 0
	}
	m.workerCap.Store(int64(n))
}

// EffectiveMaxWorkers is the largest allotment size currently grantable:
// the largest zone size that fits the worker cap, flooring at the zone-1
// minimum.
func (m *Manager) EffectiveMaxWorkers() int {
	return m.zones[m.fit(int(m.workerCap.Load()))].Size()
}

// fit returns the index of the largest zone within cap (0 = uncapped),
// flooring at the first.
func (m *Manager) fit(cap int) int {
	i := len(m.zones) - 1
	for cap > 0 && i > 0 && m.zones[i].Size() > cap {
		i--
	}
	return i
}

// Grant maps a desired worker count to the zone-granular allotment the
// system actually provides: the smallest complete allotment with at least
// desired workers, within the diaspora and worker caps. It returns the
// new allotment and whether it changed. The allotment is an entry of the
// zone table, so a grant allocates nothing.
//
// The OS "removes and adds workers in sets" (whole zones) but a single
// grant may cross several zones at once: Palirria's estimates move one
// zone per quantum by construction, while ASTEAL's multiplicative desire
// deliberately jumps — that exponential convergence (and the drain cost of
// its over-corrections) is part of the algorithm being compared.
func (m *Manager) Grant(desired int) (*topo.Allotment, bool) {
	// The zone holding desired workers may overshoot the cap (zones are
	// coarse); the largest zone that fits bounds it.
	top := m.fit(int(m.workerCap.Load()))
	i := 0
	for i < top && m.zones[i].Size() < desired {
		i++
	}
	a, cur := m.zones[i], m.current.Load()
	if a == cur {
		return cur, false
	}
	m.current.Store(a)
	return a, true
}
