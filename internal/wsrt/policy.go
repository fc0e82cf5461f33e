package wsrt

import (
	"palirria/internal/dvs"
	"palirria/internal/topo"
)

// policyBundle pairs the victim policy over the resident set with its
// reverse steal graph: thieves[v] lists the workers that have v on their
// victim list. Producers use it to wake an idle thief after making work
// visible in v's deque. members is the granted set in Members() order —
// the shard-choice population for Submit, so injected jobs only target
// workers that are actually serving. All fields are immutable once the
// bundle is stored, so readers never take a lock.
type policyBundle struct {
	policy  dvs.Policy
	thieves map[topo.CoreID][]*worker
	members []*worker
}

func (r *Runtime) loadPolicy() *policyBundle {
	b, _ := r.policy.Load().(*policyBundle)
	return b
}

// rebuildPolicy installs victim lists over the resident set (granted plus
// draining workers). It is called by the helper after every allotment
// change and by a draining worker when it retires, so stale wake-graph
// edges to retired workers are purged as soon as they stop stealing
// rather than lingering until the next grant. Callers race; the mutex
// serializes the stores and the granted allotment is loaded inside the
// critical section, so the last rebuild to run always reflects the
// freshest grant — a retirement rebuild can never resurrect a policy
// built from an allotment the helper has already replaced.
func (r *Runtime) rebuildPolicy() {
	r.policyMu.Lock()
	defer r.policyMu.Unlock()
	granted := r.grantedA.Load()
	var extra []topo.CoreID
	for _, w := range r.workerList {
		if w.state.Load() == stateDraining && !granted.Contains(w.id) {
			extra = append(extra, w.id)
		}
	}
	p, resident := dvs.ForResident(granted, extra, r.cfg.Policy, r.cfg.Seed)
	// Reverse the victim lists into a wake graph. The bundle is built
	// before it is published, so probing Victims here cannot race worker
	// calls (the random policy's per-worker streams are not shared until
	// the Store).
	thieves := make(map[topo.CoreID][]*worker, len(r.workerList))
	for _, id := range resident.Members() {
		tw := r.workerByID(id)
		if tw == nil {
			continue
		}
		for _, v := range p.Victims(id) {
			thieves[v] = append(thieves[v], tw)
		}
	}
	// Shard-choice population: granted workers only. Draining extras keep
	// stealing but must not receive fresh injected jobs — they are on
	// their way out.
	members := make([]*worker, 0, granted.Size())
	for _, id := range granted.Members() {
		if w := r.workerByID(id); w != nil {
			members = append(members, w)
		}
	}
	r.policy.Store(&policyBundle{policy: p, thieves: thieves, members: members})
}
