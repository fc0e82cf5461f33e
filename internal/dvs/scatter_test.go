package dvs

import (
	"maps"
	"testing"

	"palirria/internal/topo"
)

// scatter builds a classification for an allotment whose source sits alone
// in one corner of an 8x8 mesh while the remaining members form a compact
// cluster in the opposite corner. The neighbourhood victim rules give the
// far cluster no edge back towards the source — the source is stranded
// from the cluster's point of view — so flow connectivity depends entirely
// on ensureFlowConnected's bridging.
func scatter(t testing.TB) *topo.Classification {
	t.Helper()
	m := topo.MustMesh(8, 8)
	cluster := []topo.CoreID{54, 55, 62, 63, 46, 47}
	a, err := topo.NewAllotmentFromCores(m, 0, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return topo.Classify(a)
}

// TestScatteredAllotmentStaysFlowConnected is the regression test for the
// stranded-cluster case: every member of a scattered allotment must be
// reachable from the source in the steal graph, or tasks spawned at the
// source can never diffuse to the far cluster (§4.1.1 task discovery).
func TestScatteredAllotmentStaysFlowConnected(t *testing.T) {
	c := scatter(t)
	d := New(c)
	a := c.Allotment()
	if !FlowConnected(d, a) {
		t.Fatalf("scattered allotment is not flow connected; unreachable: %v", Unreachable(d, a))
	}
	if un := Unreachable(d, a); len(un) != 0 {
		t.Fatalf("workers %v unreachable from source %d", un, a.Source())
	}
}

// TestReachableSeedsFromAllRoots covers the degenerate-case machinery
// white-box: stealDistances must seed its BFS from every supplied flow
// root, which is what lets ensureFlowConnected promote the lowest-id
// member to a root when the source's flow reaches no member at all. Two
// disjoint steal-graph components are visible from their own root only,
// and the union of roots sees both, each core at its hop count from the
// nearest root.
func TestReachableSeedsFromAllRoots(t *testing.T) {
	m := topo.MustMesh(8, 8)
	a, err := topo.NewAllotmentFromCores(m, 0, []topo.CoreID{1, 62, 63})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built disjoint components: 1 steals from 0, 63 steals from 62.
	d := &DVS{victims: map[topo.CoreID][]topo.CoreID{
		1:  {0},
		63: {62},
	}}
	for _, tc := range []struct {
		roots []topo.CoreID
		want  map[topo.CoreID]int
	}{
		{[]topo.CoreID{0}, map[topo.CoreID]int{0: 0, 1: 1}},
		{[]topo.CoreID{62}, map[topo.CoreID]int{62: 0, 63: 1}},
		{[]topo.CoreID{0, 62}, map[topo.CoreID]int{0: 0, 1: 1, 62: 0, 63: 1}},
	} {
		if got := stealDistances(a, d.Victims, tc.roots); !maps.Equal(got, tc.want) {
			t.Fatalf("roots %v: reached %v, want %v", tc.roots, got, tc.want)
		}
	}
}

// TestBridgeOnePicksNearestPair pins bridgeOne's choice: the bridging
// edge connects the unreached worker to the reached member at minimal hop
// distance, ties broken towards lower ids, so rebuilding the policy for
// the same allotment always yields the same graph.
func TestBridgeOnePicksNearestPair(t *testing.T) {
	m := topo.MustMesh(8, 8)
	// Reached: source 0 at (0,0) and member 2 at (2,0). Unreached: 59 at
	// (3,7) and 62 at (6,7). 59 is 8 hops from 2 (vs 10 from 0) and 62 is
	// 11 from 2 (13 from 0) — the minimal pair is (59, 2).
	a, err := topo.NewAllotmentFromCores(m, 0, []topo.CoreID{2, 59, 62})
	if err != nil {
		t.Fatal(err)
	}
	d := &DVS{victims: map[topo.CoreID][]topo.CoreID{2: {0}}}
	reached := map[topo.CoreID]int{0: 0, 2: 1}
	d.bridgeOne(a, reached)
	if got := d.victims[59]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("bridge edge = %v on worker 59 (victims: %v), want [2]", got, d.victims)
	}
	// Second round: with 59 connected, 62 bridges to it (3 hops, vs 11
	// to 2) — the nearest-pair rule chains clusters inward.
	reached[59] = 2
	d.bridgeOne(a, reached)
	if got := d.victims[62]; len(got) != 1 || got[0] != 59 {
		t.Fatalf("bridge edge = %v on worker 62 (victims: %v), want [59]", got, d.victims)
	}
	// With both bridges in place the whole allotment drains connected.
	want := map[topo.CoreID]int{0: 0, 2: 1, 59: 2, 62: 3}
	if r := stealDistances(a, d.Victims, []topo.CoreID{0}); !maps.Equal(r, want) {
		t.Fatalf("after bridging reached %v, want %v", r, want)
	}
}
