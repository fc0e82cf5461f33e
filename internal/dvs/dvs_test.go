package dvs

import (
	"testing"

	"palirria/internal/topo"
)

func sim27(t testing.TB) *topo.Classification {
	t.Helper()
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotment(m, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo.Classify(a)
}

func sim5(t testing.TB) *topo.Classification {
	t.Helper()
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotment(m, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	return topo.Classify(a)
}

func TestDVSAllWorkersHaveVictims(t *testing.T) {
	c := sim27(t)
	d := New(c)
	for _, w := range c.Allotment().Members() {
		v := d.Victims(w)
		if len(v) == 0 {
			t.Fatalf("worker %d has no victims", w)
		}
		for _, x := range v {
			if x == w {
				t.Fatalf("worker %d lists itself as victim", w)
			}
			if !c.Allotment().Contains(x) {
				t.Fatalf("worker %d lists non-member victim %d", w, x)
			}
		}
	}
}

func TestDVSDistanceBound(t *testing.T) {
	// Rule-derived victims are at communication distance <= 2.
	c := sim27(t)
	d := New(c)
	m := c.Allotment().Mesh()
	for _, w := range c.Allotment().Members() {
		for _, v := range d.Victims(w) {
			if hc := m.HopCount(w, v); hc > 2 {
				t.Fatalf("worker %d steals from %d at distance %d > 2", w, v, hc)
			}
		}
	}
}

func TestDVSNoDuplicates(t *testing.T) {
	c := sim27(t)
	d := New(c)
	for _, w := range c.Allotment().Members() {
		seen := map[topo.CoreID]bool{}
		for _, v := range d.Victims(w) {
			if seen[v] {
				t.Fatalf("worker %d has duplicate victim %d", w, v)
			}
			seen[v] = true
		}
	}
}

func TestDVSXPrimaryVictimIsInnerAxisParent(t *testing.T) {
	c := sim27(t)
	d := New(c)
	m := c.Allotment().Mesh()
	src := c.Allotment().Source()
	for _, w := range c.X() {
		inner := c.InnerNeighbors(w)
		if len(inner) != 1 {
			t.Fatalf("X worker %d has %d inner neighbours", w, len(inner))
		}
		v := d.Victims(w)
		if v[0] != inner[0] {
			t.Fatalf("X worker %d primary victim = %d, want inner parent %d", w, v[0], inner[0])
		}
		// The axis chain terminates at the source.
		if c.Allotment().ZoneOf(w) == 1 && v[0] != src {
			t.Fatalf("zone-1 X worker %d must pull from the source, got %d", w, v[0])
		}
		_ = m
	}
}

func TestDVSZPrefersRingOverInner(t *testing.T) {
	c := sim27(t)
	d := New(c)
	for _, w := range c.Z() {
		if c.Class(w) != topo.ClassZ {
			continue // XZ members follow the X ordering
		}
		ring := c.RingNeighbors(w)
		if len(ring) == 0 {
			continue
		}
		v := d.Victims(w)
		inRing := map[topo.CoreID]bool{}
		for _, r := range ring {
			inRing[r] = true
		}
		// The first len(ring) victims are exactly the ring members.
		for i := 0; i < len(ring); i++ {
			if !inRing[v[i]] {
				t.Fatalf("Z worker %d victim[%d]=%d is not a ring member; ring=%v list=%v",
					w, i, v[i], ring, v)
			}
		}
	}
}

func TestDVSFPrefersOuter(t *testing.T) {
	c := sim27(t)
	d := New(c)
	for _, w := range c.F() {
		outer := c.OuterVictims(w)
		if len(outer) == 0 {
			continue
		}
		v := d.Victims(w)
		inOuter := map[topo.CoreID]bool{}
		for _, o := range outer {
			inOuter[o] = true
		}
		for i := 0; i < len(outer); i++ {
			if !inOuter[v[i]] {
				t.Fatalf("F worker %d victim[%d]=%d is not outer; outer=%v list=%v",
					w, i, v[i], outer, v)
			}
		}
	}
}

func TestDVSSourceStealsFromZoneOne(t *testing.T) {
	c := sim27(t)
	d := New(c)
	src := c.Allotment().Source()
	v := d.Victims(src)
	zone1 := map[topo.CoreID]bool{}
	for _, w := range c.Allotment().Zone(1) {
		zone1[w] = true
	}
	for i := 0; i < len(zone1); i++ {
		if !zone1[v[i]] {
			t.Fatalf("source victim[%d]=%d is not in zone 1", i, v[i])
		}
	}
}

func TestDVSFiveWorkerAllotment(t *testing.T) {
	// All zone-1 workers are XZ: their primary victim is the source.
	c := sim5(t)
	d := New(c)
	src := c.Allotment().Source()
	for _, w := range c.Allotment().Zone(1) {
		v := d.Victims(w)
		if v[0] != src {
			t.Fatalf("zone-1 worker %d primary victim = %d, want source %d", w, v[0], src)
		}
	}
}

func TestDVSOuterVictimMutuality(t *testing.T) {
	// Definition 1: members of O_w steal from w too (w appears in their
	// victim lists). This is what makes µ(O_w) the right bound for L.
	c := sim27(t)
	d := New(c)
	for _, w := range c.Allotment().Members() {
		if w == c.Allotment().Source() {
			continue
		}
		for _, o := range c.OuterVictims(w) {
			found := false
			for _, v := range d.Victims(o) {
				if v == w {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("O_%d member %d does not list %d as a victim", w, o, w)
			}
		}
	}
}

func TestDVSDeterministic(t *testing.T) {
	c := sim27(t)
	d1, d2 := New(c), New(c)
	for _, w := range c.Allotment().Members() {
		v1, v2 := d1.Victims(w), d2.Victims(w)
		if len(v1) != len(v2) {
			t.Fatalf("worker %d victim lists differ in length", w)
		}
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("worker %d victim lists differ at %d", w, i)
			}
		}
	}
}

func TestDVSScatteredAllotmentFallback(t *testing.T) {
	// An isolated member (no allotted neighbour within distance 2) must
	// still get victims via the nearest-member fallback.
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotmentFromCores(m, 20, []topo.CoreID{21, 7}) // core 7 = (7,0), far away
	if err != nil {
		t.Fatal(err)
	}
	c := topo.Classify(a)
	d := New(c)
	v := d.Victims(topo.CoreID(7))
	if len(v) == 0 {
		t.Fatal("isolated worker has no victims")
	}
}

func TestRandomPolicy(t *testing.T) {
	c := sim27(t)
	a := c.Allotment()
	r := NewRandom(a, 42)
	if r.Name() != "random" {
		t.Fatal("name wrong")
	}
	w := a.Members()[3]
	v := r.Victims(w)
	if len(v) != a.Size()-1 {
		t.Fatalf("random victims = %d, want %d", len(v), a.Size()-1)
	}
	seen := map[topo.CoreID]bool{}
	for _, x := range v {
		if x == w || seen[x] || !a.Contains(x) {
			t.Fatalf("bad victim %d in %v", x, v)
		}
		seen[x] = true
	}
}

func TestRandomPolicyDeterministicAcrossRuns(t *testing.T) {
	c := sim27(t)
	a := c.Allotment()
	r1, r2 := NewRandom(a, 7), NewRandom(a, 7)
	w := a.Members()[5]
	for round := 0; round < 10; round++ {
		v1 := append([]topo.CoreID(nil), r1.Victims(w)...)
		v2 := r2.Victims(w)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("round %d: divergence at %d", round, i)
			}
		}
	}
}

func TestRandomPolicyPerWorkerIndependence(t *testing.T) {
	c := sim27(t)
	a := c.Allotment()
	r := NewRandom(a, 7)
	// Different workers get different (very likely) first victims over
	// several rounds; more importantly, interleaving calls for one worker
	// with calls for another must not change either stream.
	w1, w2 := a.Members()[2], a.Members()[9]
	solo := NewRandom(a, 7)
	var want [][]topo.CoreID
	for i := 0; i < 5; i++ {
		want = append(want, append([]topo.CoreID(nil), solo.Victims(w1)...))
	}
	for i := 0; i < 5; i++ {
		got := r.Victims(w1)
		r.Victims(w2) // interleave
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("interleaving perturbed stream at round %d", i)
			}
		}
	}
}

func TestRandomVictimsUnknownWorker(t *testing.T) {
	c := sim5(t)
	r := NewRandom(c.Allotment(), 1)
	if v := r.Victims(topo.CoreID(31)); v != nil {
		t.Fatalf("unknown worker got victims %v", v)
	}
}

func TestRoundRobin(t *testing.T) {
	c := sim5(t)
	a := c.Allotment()
	rr := NewRoundRobin(a)
	if rr.Name() != "roundrobin" {
		t.Fatal("name wrong")
	}
	for _, w := range a.Members() {
		v := rr.Victims(w)
		if len(v) != a.Size()-1 {
			t.Fatalf("worker %d: %d victims, want %d", w, len(v), a.Size()-1)
		}
		// Cyclic order: strictly increasing ids with one wrap.
		wraps := 0
		prev := w
		for _, x := range v {
			if x < prev {
				wraps++
			}
			prev = x
		}
		if wraps > 1 {
			t.Fatalf("worker %d victim order not cyclic: %v", w, v)
		}
	}
}

func TestDVSName(t *testing.T) {
	if New(sim5(t)).Name() != "dvs" {
		t.Fatal("name wrong")
	}
}

func BenchmarkDVSBuild27(b *testing.B) {
	c := sim27(b)
	for i := 0; i < b.N; i++ {
		New(c)
	}
}

func BenchmarkRandomVictims(b *testing.B) {
	c := sim27(b)
	r := NewRandom(c.Allotment(), 1)
	w := c.Allotment().Members()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Victims(w)
	}
}

func TestZClassOuterTierEmpty(t *testing.T) {
	// buildVictims skips the outer tier for pure-Z workers because Z sits
	// in the outermost zone, where no outer victims can exist. This pins
	// the invariant that justifies the skip, on both evaluation-platform
	// shapes and a 3D mesh.
	for _, dims := range [][]int{{8, 4}, {8, 6}, {4, 4, 4}} {
		m := topo.MustMesh(dims...)
		a, err := topo.NewAllotment(m, topo.CoreID(m.NumCores()/2), 3)
		if err != nil {
			t.Fatal(err)
		}
		c := topo.Classify(a)
		for _, w := range c.Z() {
			if c.Class(w) != topo.ClassZ {
				continue // XZ members sit on the axes, not the outermost ring
			}
			if outer := c.OuterVictims(w); len(outer) != 0 {
				t.Fatalf("%v: Z worker %d has outer victims %v, want none", dims, w, outer)
			}
		}
	}
}

// TestForResident pins the one policy constructor both platforms use:
// the name switch, the granted allotment used as it is when nothing
// drains, draining extras joining the resident set, and the fallback to
// the grant when an extra cannot join.
func TestForResident(t *testing.T) {
	granted := sim5(t).Allotment()
	for name, want := range map[string]string{"random": "random", "roundrobin": "roundrobin", "dvs": "dvs", "": "dvs"} {
		p, resident := ForResident(granted, nil, name, 1)
		if p.Name() != want || resident != granted {
			t.Fatalf("%q: policy %s over %v, want %s over the grant", name, p.Name(), resident, want)
		}
	}
	const draining = topo.CoreID(22) // two hops from source 20
	p, resident := ForResident(granted, []topo.CoreID{draining}, "dvs", 1)
	if resident.Size() != granted.Size()+1 || !resident.Contains(draining) || len(p.Victims(draining)) == 0 {
		t.Fatalf("draining core %d not resident: %v, victims %v", draining, resident, p.Victims(draining))
	}
	if _, resident := ForResident(granted, []topo.CoreID{0}, "dvs", 1); resident != granted {
		t.Fatalf("a reserved extra must fall back to the grant, got %v", resident)
	}
}
