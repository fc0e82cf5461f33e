package dvs

import (
	"palirria/internal/topo"
)

// FlowConnected reports whether every allotment member can discover work
// under the policy: in the steal graph with an edge victim→thief for every
// victim in a worker's list, every non-source worker must be reachable
// from the source. The paper relies on this property ("DVS scheduling
// complements this design by guaranteeing task discovery by all workers",
// §4.1.1): tasks originate at the source, and a worker disconnected from
// the source's flow could never receive any.
func FlowConnected(p Policy, a *topo.Allotment) bool {
	return len(Unreachable(p, a)) == 0
}

// Unreachable returns the allotment members that cannot receive work from
// the source under the policy's steal graph (empty when flow is intact).
func Unreachable(p Policy, a *topo.Allotment) []topo.CoreID {
	reached := stealDistances(a, p.Victims, []topo.CoreID{a.Source()})
	var missing []topo.CoreID
	for _, w := range a.Members() {
		if _, ok := reached[w]; !ok {
			missing = append(missing, w)
		}
	}
	return missing
}

// MaxFlowDistance returns the longest shortest-path (in steal hops) from
// the source to any member in the policy's steal graph: how many steal
// generations a task needs to reach the farthest worker. For DVS on a
// complete 2D allotment this is Θ(d); for random victim selection it is 1.
func MaxFlowDistance(p Policy, a *topo.Allotment) int {
	far := 0
	for _, h := range stealDistances(a, p.Victims, []topo.CoreID{a.Source()}) {
		far = max(far, h)
	}
	return far
}

// stealDistances walks the steal graph of a's members — an edge
// victim→thief for every victim in a member's list — breadth first from
// roots, and returns the distance in steal hops of every core it reaches,
// 0 for the roots. A core absent from the map is unreachable.
func stealDistances(a *topo.Allotment, victims func(topo.CoreID) []topo.CoreID, roots []topo.CoreID) map[topo.CoreID]int {
	thieves := make(map[topo.CoreID][]topo.CoreID, a.Size())
	for _, w := range a.Members() {
		for _, v := range victims(w) {
			thieves[v] = append(thieves[v], w)
		}
	}
	dist := make(map[topo.CoreID]int, a.Size())
	queue := make([]topo.CoreID, 0, a.Size())
	for _, r := range roots {
		if _, ok := dist[r]; !ok {
			dist[r] = 0
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, t := range thieves[v] {
			if _, ok := dist[t]; !ok {
				dist[t] = dist[v] + 1
				queue = append(queue, t)
			}
		}
	}
	return dist
}
