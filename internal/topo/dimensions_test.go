package topo

import "testing"

// The paper's theoretical model allows topologies of up to three
// dimensions ("cores can be modeled in one dimension, as if placed in a
// row... Different dimensions produce a different classification although
// the implications remain the same", §2.2). These tests pin down the
// classification on 1D and 3D meshes.

func TestClassify1DRow(t *testing.T) {
	// 16 cores in a row, source in the middle: zones are pairs of cores,
	// every non-source worker has exactly one inner neighbour, so the
	// whole allotment is class X (rim members are X∩Z).
	m := MustMesh(16)
	src := CoreID(8)
	a, err := NewAllotment(m, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 7 { // source + 2 per zone * 3 zones
		t.Fatalf("size = %d, want 7", a.Size())
	}
	c := Classify(a)
	if len(c.F()) != 0 {
		t.Fatalf("1D mesh has F members: %v", c.F())
	}
	for _, w := range a.Members() {
		if w == src {
			continue
		}
		if !c.Class(w).IsX() {
			t.Fatalf("1D worker %d classified %v, want X-like", w, c.Class(w))
		}
	}
	if got := len(c.Z()); got != 2 {
		t.Fatalf("|Z| = %d, want 2 (the two rim cores)", got)
	}
}

func TestClassify1DEdgeClipping(t *testing.T) {
	// Source near the row's end: zones clip to one side.
	m := MustMesh(8)
	a, err := NewAllotment(m, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Within distance 3 of core 1: cores 0..4 -> size 5.
	if a.Size() != 5 {
		t.Fatalf("size = %d, want 5", a.Size())
	}
	c := Classify(a)
	// Core 4 is the only distance-3 member: Z = {4}; core 0 is at
	// distance 1 on the clipped side.
	if got := len(c.Z()); got != 1 {
		t.Fatalf("|Z| = %d, want 1", got)
	}
}

func TestZoneSeries1D(t *testing.T) {
	m := MustMesh(32)
	got := zoneSizes(t, m, 16, 4)
	want := []int{3, 5, 7, 9} // 1 + 2d for an unclipped row
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestClassify3DCube(t *testing.T) {
	// 5x5x5 cube, centered source: zone sizes follow the 3D Manhattan
	// ball; interior X members are the six axis neighbours.
	m := MustMesh(5, 5, 5)
	src := m.ID(Coord{X: 2, Y: 2, Z: 2})
	a, err := NewAllotment(m, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	// |ball(1)| = 7, zone 2 adds 18 (octahedron shell): size 25.
	if a.Size() != 25 {
		t.Fatalf("size = %d, want 25", a.Size())
	}
	c := Classify(a)
	// Zone 1: six axis neighbours, each with exactly one inner neighbour
	// (the source) -> X.
	for _, w := range a.Zone(1) {
		if !c.Class(w).IsX() {
			t.Fatalf("zone-1 member %d classified %v", w, c.Class(w))
		}
	}
	// Zone-2 axis tips ((4,2,2) etc.) are X∩Z.
	tip := m.ID(Coord{X: 4, Y: 2, Z: 2})
	if c.Class(tip) != ClassXZ {
		t.Fatalf("axis tip classified %v, want XZ", c.Class(tip))
	}
	// Zone-2 diagonal members ((3,3,2) etc.) have two inner neighbours ->
	// Z only.
	diag := m.ID(Coord{X: 3, Y: 3, Z: 2})
	if c.Class(diag) != ClassZ {
		t.Fatalf("diagonal rim classified %v, want Z", c.Class(diag))
	}
	// Classes X and Z cover everything at d=2 (no interior non-axis
	// members yet): F is empty.
	if len(c.F()) != 0 {
		t.Fatalf("unexpected F members at d=2: %v", c.F())
	}
	// At d=3, interior non-axis members appear: F non-empty.
	a3, _ := NewAllotment(m, src, 3)
	if c3 := Classify(a3); len(c3.F()) == 0 {
		t.Fatal("3D d=3 allotment must have F members")
	}
}

func TestOuterVictims3D(t *testing.T) {
	// A 3D interior axis worker has at most 5 outer distance-1 neighbours.
	m := MustMesh(7, 7, 7)
	src := m.ID(Coord{X: 3, Y: 3, Z: 3})
	a, err := NewAllotment(m, src, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(a)
	w := m.ID(Coord{X: 4, Y: 3, Z: 3}) // zone-1 axis worker
	if got := len(c.OuterVictims(w)); got != 5 {
		t.Fatalf("µ(O) = %d, want 5 in 3D", got)
	}
}

func TestRingNeighbors3D(t *testing.T) {
	// Diagonal ring neighbours in 3D: one hop along each of two axes.
	m := MustMesh(5, 5, 5)
	src := m.ID(Coord{X: 2, Y: 2, Z: 2})
	a, err := NewAllotment(m, src, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(a)
	w := m.ID(Coord{X: 3, Y: 3, Z: 2}) // zone-2 diagonal member
	rn := c.RingNeighbors(w)
	for _, r := range rn {
		if m.HopCount(w, r) != 2 || a.ZoneOf(r) != 2 {
			t.Fatalf("bad ring neighbour %d", r)
		}
	}
	if len(rn) == 0 {
		t.Fatal("3D ring neighbours missing")
	}
}
