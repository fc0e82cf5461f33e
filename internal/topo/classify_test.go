package topo

import (
	"testing"
	"testing/quick"
)

func classifyFull(t *testing.T, m *Mesh, src CoreID, d int) *Classification {
	t.Helper()
	a, err := NewAllotment(m, src, d)
	if err != nil {
		t.Fatal(err)
	}
	return Classify(a)
}

func TestClassifyFiveWorkerAllotment(t *testing.T) {
	// Paper §4.1.1 example: "an allotment of 5 workers (1 zone plus the
	// source). All workers are part of X and their respective value of L is
	// zero." With the formal definitions they are X∩Z members.
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 1)
	if got := len(c.X()); got != 4 {
		t.Fatalf("|X| = %d, want 4", got)
	}
	if got := len(c.Z()); got != 4 {
		t.Fatalf("|Z| = %d, want 4", got)
	}
	if got := len(c.F()); got != 0 {
		t.Fatalf("|F| = %d, want 0", got)
	}
	for _, w := range c.X() {
		if c.Class(w) != ClassXZ {
			t.Fatalf("zone-1 worker %d classified %v, want XZ", w, c.Class(w))
		}
		// L is bound at µ(O_w) = 0: no outer zone is allotted.
		if got := len(c.OuterVictims(w)); got != 0 {
			t.Fatalf("µ(O_%d) = %d, want 0", w, got)
		}
	}
}

func TestClassifySourceIsNotXZF(t *testing.T) {
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 3)
	if c.Class(src) != ClassSource {
		t.Fatalf("source class = %v", c.Class(src))
	}
	for _, set := range [][]CoreID{c.X(), c.Z(), c.F()} {
		for _, w := range set {
			if w == src {
				t.Fatal("source leaked into a class set")
			}
		}
	}
}

func TestClassifyCoverage(t *testing.T) {
	// Every non-source member belongs to X, Z or F; F is disjoint from both.
	m, src := numaPlatform(t)
	f := func(dRaw uint8) bool {
		d := 1 + int(dRaw)%6
		a, err := NewAllotment(m, src, d)
		if err != nil {
			return false
		}
		c := Classify(a)
		inX := map[CoreID]bool{}
		inZ := map[CoreID]bool{}
		for _, w := range c.X() {
			inX[w] = true
		}
		for _, w := range c.Z() {
			inZ[w] = true
		}
		covered := 1 // source
		for _, w := range a.Members() {
			if w == src {
				continue
			}
			switch c.Class(w) {
			case ClassX:
				if !inX[w] || inZ[w] {
					return false
				}
			case ClassZ:
				if inX[w] || !inZ[w] {
					return false
				}
			case ClassXZ:
				if !inX[w] || !inZ[w] {
					return false
				}
			case ClassF:
				if inX[w] || inZ[w] {
					return false
				}
			default:
				return false
			}
			covered++
		}
		return covered == a.Size() &&
			len(c.F()) == a.Size()-1-len(unionSize(c.X(), c.Z()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func unionSize(a, b []CoreID) []CoreID {
	set := map[CoreID]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]CoreID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

func TestClassifyZIsOutermostZone(t *testing.T) {
	m, src := simPlatform(t)
	for d := 1; d <= 4; d++ {
		c := classifyFull(t, m, src, d)
		a := c.Allotment()
		zone := a.Zone(a.Diaspora())
		if len(c.Z()) != len(zone) {
			t.Fatalf("d=%d: |Z| = %d, want |zone d| = %d", d, len(c.Z()), len(zone))
		}
		for _, w := range c.Z() {
			if a.ZoneOf(w) != a.Diaspora() {
				t.Fatalf("d=%d: Z member %d not at max distance", d, w)
			}
		}
	}
}

func TestClassifyXAxisMembers(t *testing.T) {
	// On the complete 27-worker 8x4 allotment (paper Fig. 9a), the on-axis
	// workers within the grid are X; they each have exactly one inner
	// neighbour.
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 4)
	a := c.Allotment()
	sc := m.Coord(src)
	for _, w := range a.Members() {
		if w == src {
			continue
		}
		wc := m.Coord(w)
		onAxis := wc.X == sc.X || wc.Y == sc.Y
		if onAxis && !c.Class(w).IsX() {
			// On-axis workers always have exactly one inner neighbour on a
			// complete allotment.
			t.Fatalf("on-axis worker %d (%+v) classified %v", w, wc, c.Class(w))
		}
	}
	// A representative interior off-axis worker is F: (3,1) has two inner
	// neighbours (4,1) and (3,2).
	f := m.ID(Coord{X: 3, Y: 1})
	if c.Class(f) != ClassF {
		t.Fatalf("worker (3,1) classified %v, want F", c.Class(f))
	}
}

func TestClassifyIncompleteAllotment(t *testing.T) {
	// Clipping at the grid edge creates X members off the axes: a worker
	// whose other inner neighbour was never allotted. Build an allotment
	// with a hole to exercise this.
	m, src := simPlatform(t)
	full, _ := NewAllotment(m, src, 2)
	var cores []CoreID
	removed := m.ID(Coord{X: 4, Y: 1}) // inner neighbour of (3,1)... (4,1) is zone 1
	for _, w := range full.Members() {
		if w != removed && w != src {
			cores = append(cores, w)
		}
	}
	a, err := NewAllotmentFromCores(m, src, cores)
	if err != nil {
		t.Fatal(err)
	}
	c := Classify(a)
	// (3,1) is at distance 2; its inner neighbours are (4,1) [removed] and
	// (3,2) [present] -> exactly one -> X (and Z, being at max distance).
	w := m.ID(Coord{X: 3, Y: 1})
	if !c.Class(w).IsX() {
		t.Fatalf("worker (3,1) with one inner neighbour classified %v, want X-like", c.Class(w))
	}
	// (4,0) at distance 2 lost its only inner neighbour (4,1): zero inner
	// neighbours -> not X; at max distance -> Z.
	w = m.ID(Coord{X: 4, Y: 0})
	if got := c.Class(w); got != ClassZ {
		t.Fatalf("worker (4,0) classified %v, want Z", got)
	}
	if c.Complete() {
		t.Fatal("allotment with a hole must be incomplete")
	}
	cFull := Classify(full)
	if !cFull.Complete() {
		t.Fatal("full allotment must be complete")
	}
}

func TestOuterVictimsMutualAndBounded(t *testing.T) {
	// O_w members are at distance 1, one zone out, and allotted.
	m, src := numaPlatform(t)
	c := classifyFull(t, m, src, 4)
	a := c.Allotment()
	for _, w := range a.Members() {
		if w == src {
			continue
		}
		for _, o := range c.OuterVictims(w) {
			if m.HopCount(w, o) != 1 {
				t.Fatalf("O_%d member %d not at distance 1", w, o)
			}
			if a.ZoneOf(o) != a.ZoneOf(w)+1 {
				t.Fatalf("O_%d member %d not in outer zone", w, o)
			}
		}
		if len(c.OuterVictims(w)) > 3 {
			// On a 2D mesh a worker has at most 3 outer neighbours (the
			// fourth neighbour is always weakly inner).
			t.Fatalf("µ(O_%d) = %d > 3 on a 2D mesh", w, len(c.OuterVictims(w)))
		}
	}
}

func TestInteriorXOuterVictimCount(t *testing.T) {
	// An interior on-axis X worker (not at the rim, not clipped) has exactly
	// 3 outer victims: the next axis worker plus two off-axis ones.
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 4)
	w := m.ID(Coord{X: 3, Y: 2}) // one hop left of source, interior
	if got := len(c.OuterVictims(w)); got != 3 {
		t.Fatalf("µ(O_(3,2)) = %d, want 3", got)
	}
}

func TestRingNeighbors(t *testing.T) {
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 2)
	// (3,1) is in zone 2; its ring-adjacent (diagonal) same-zone neighbours
	// are (2,2) and (4,0). The straight-line distance-2 cores (5,1) and
	// (3,3) are in the same zone but not ring-adjacent.
	w := m.ID(Coord{X: 3, Y: 1})
	rn := c.RingNeighbors(w)
	want := map[CoreID]bool{
		m.ID(Coord{X: 2, Y: 2}): true,
		m.ID(Coord{X: 4, Y: 0}): true,
	}
	if len(rn) != len(want) {
		t.Fatalf("ring neighbours of (3,1) = %v, want %v", rn, want)
	}
	for _, r := range rn {
		if !want[r] {
			t.Fatalf("unexpected ring neighbour %d (%+v)", r, m.Coord(r))
		}
	}
}

func TestInnerNeighbors(t *testing.T) {
	m, src := simPlatform(t)
	c := classifyFull(t, m, src, 2)
	// Zone-1 workers' only inner neighbour is the source.
	for _, w := range c.Allotment().Zone(1) {
		in := c.InnerNeighbors(w)
		if len(in) != 1 || in[0] != src {
			t.Fatalf("inner neighbours of zone-1 worker %d = %v, want [%d]", w, in, src)
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		ClassNone:   ".",
		ClassSource: "s",
		ClassX:      "X",
		ClassZ:      "Z",
		ClassXZ:     "XZ",
		ClassF:      "F",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class string wrong")
	}
}

func TestClassPredicates(t *testing.T) {
	if !ClassX.IsX() || !ClassXZ.IsX() || ClassZ.IsX() || ClassF.IsX() {
		t.Error("IsX predicate wrong")
	}
	if !ClassZ.IsZ() || !ClassXZ.IsZ() || ClassX.IsZ() || ClassF.IsZ() {
		t.Error("IsZ predicate wrong")
	}
}

// BenchmarkClassify27 times building the classification of the 27-worker
// allotment, the cost NewAllotment and Zones pay once per allotment.
func BenchmarkClassify27(b *testing.B) {
	m := MustMesh(8, 4)
	m.Reserve(0, 1)
	a, _ := NewAllotment(m, 20, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify(a)
	}
}

func BenchmarkZoneSeries(b *testing.B) {
	m := MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Zones(m, 28, 6); err != nil {
			b.Fatal(err)
		}
	}
}
