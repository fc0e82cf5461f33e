package sysched

import (
	"reflect"
	"testing"

	"palirria/internal/topo"
)

func TestArbiterRegisterAndGrow(t *testing.T) {
	m := topo.MustMesh(9, 9)
	ab := NewArbiter(m)
	app1, err := ab.Register("app1", m.ID(topo.Coord{X: 2, Y: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if app1.Allotment().Size() != 5 {
		t.Fatalf("initial size = %d, want 5 (uncontended)", app1.Allotment().Size())
	}
	a := ab.Request(app1, 12)
	if a.Size() != 12 {
		t.Fatalf("grow = %d, want 12", a.Size())
	}
	// All members within a sane distance and owned exactly once.
	for _, id := range a.Members() {
		if m.HopCount(app1.Source(), id) > 4 {
			t.Fatalf("member %d too far for a 12-worker grant", id)
		}
	}
}

// TestArbiterRegisterSeedsZone1 holds the seed share to the source plus
// its free distance-1 neighbours on an empty 8x4 mesh: a corner or edge
// source starts smaller than an interior one, and a neighbour another
// application owns is not replaced by a farther core.
func TestArbiterRegisterSeedsZone1(t *testing.T) {
	cases := []struct {
		name    string
		before  []topo.CoreID // sources registered first
		source  topo.CoreID
		members []topo.CoreID
	}{
		{"corner", nil, 0, []topo.CoreID{0, 1, 8}},
		{"edge", nil, 3, []topo.CoreID{3, 2, 4, 11}},
		{"interior", nil, 10, []topo.CoreID{10, 2, 9, 11, 18}},
		{"contended neighbour", []topo.CoreID{10}, 12, []topo.CoreID{12, 4, 13, 20}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := topo.MustMesh(8, 4)
			ab := NewArbiter(m)
			for _, src := range c.before {
				if _, err := ab.Register("before", src); err != nil {
					t.Fatal(err)
				}
			}
			app, err := ab.Register("app", c.source)
			if err != nil {
				t.Fatal(err)
			}
			if got := app.Allotment().Members(); !reflect.DeepEqual(got, c.members) {
				t.Fatalf("seed = %v, want %v", got, c.members)
			}
			owned := m.Usable() - ab.FreeCores()
			want := len(c.members)
			for _, other := range ab.Apps()[:len(c.before)] {
				want += other.Allotment().Size()
			}
			if owned != want {
				t.Fatalf("%d cores owned, want %d", owned, want)
			}
		})
	}
}

func TestArbiterNoOverlap(t *testing.T) {
	m := topo.MustMesh(9, 9)
	ab := NewArbiter(m)
	a1, _ := ab.Register("a", m.ID(topo.Coord{X: 2, Y: 2}))
	a2, _ := ab.Register("b", m.ID(topo.Coord{X: 6, Y: 2}))
	a3, _ := ab.Register("c", m.ID(topo.Coord{X: 4, Y: 6}))
	ab.Request(a1, 20)
	ab.Request(a2, 20)
	ab.Request(a3, 20)
	seen := map[topo.CoreID]string{}
	for _, app := range ab.Apps() {
		for _, id := range app.Allotment().Members() {
			if owner, dup := seen[id]; dup {
				t.Fatalf("core %d owned by both %s and %s", id, owner, app.Name)
			}
			seen[id] = app.Name
		}
	}
	total := a1.Allotment().Size() + a2.Allotment().Size() + a3.Allotment().Size()
	if total+ab.FreeCores() != m.Usable() {
		t.Fatalf("accounting broken: %d owned + %d free != %d usable",
			total, ab.FreeCores(), m.Usable())
	}
}

func TestArbiterContention(t *testing.T) {
	// On a small mesh, two greedy apps exhaust the cores; growth stalls.
	m := topo.MustMesh(4, 2)
	ab := NewArbiter(m)
	a1, _ := ab.Register("a", 0)
	a2, _ := ab.Register("b", 7)
	ab.Request(a1, 8)
	ab.Request(a2, 8)
	if a1.Allotment().Size()+a2.Allotment().Size() != 8 {
		t.Fatalf("sizes %d + %d != 8", a1.Allotment().Size(), a2.Allotment().Size())
	}
	if ab.FreeCores() != 0 {
		t.Fatalf("free = %d, want 0", ab.FreeCores())
	}
	// The deprived app grows once the other releases cores.
	before := a2.Allotment().Size()
	ab.Request(a1, 2)
	after := ab.Request(a2, 8)
	if after.Size() <= before {
		t.Fatalf("app2 did not grow after release: %d -> %d", before, after.Size())
	}
}

func TestArbiterShrinkKeepsSource(t *testing.T) {
	m := topo.MustMesh(9, 9)
	ab := NewArbiter(m)
	app, _ := ab.Register("a", m.ID(topo.Coord{X: 4, Y: 4}))
	ab.Request(app, 20)
	a := ab.Request(app, 1)
	if a.Size() != 1 || a.Source() != m.ID(topo.Coord{X: 4, Y: 4}) {
		t.Fatalf("shrink to 1 = %v", a)
	}
	if !a.Contains(a.Source()) {
		t.Fatal("source released")
	}
	// Shrink releases the farthest first: request 5 after growing again.
	ab.Request(app, 20)
	a = ab.Request(app, 5)
	for _, id := range a.Members() {
		if m.HopCount(a.Source(), id) > 2 {
			t.Fatalf("kept a far core %d after shrink", id)
		}
	}
}

func TestArbiterIncompleteClasses(t *testing.T) {
	// Contended allotments have incomplete classes (paper Fig. 2), which
	// Classify must handle.
	m := topo.MustMesh(6, 6)
	ab := NewArbiter(m)
	a1, _ := ab.Register("a", m.ID(topo.Coord{X: 1, Y: 1}))
	a2, _ := ab.Register("b", m.ID(topo.Coord{X: 4, Y: 4}))
	ab.Request(a1, 14)
	ab.Request(a2, 14)
	for _, app := range []*App{a1, a2} {
		c := topo.Classify(app.Allotment())
		if c.Complete() && app.Allotment().Size() > 5 {
			t.Logf("%s happens to be complete (%d workers)", app.Name, app.Allotment().Size())
		}
		// Classification must cover every member.
		for _, id := range app.Allotment().Members() {
			if c.Class(id) == topo.ClassNone {
				t.Fatalf("%s: member %d unclassified", app.Name, id)
			}
		}
	}
}

func TestArbiterValidation(t *testing.T) {
	m := topo.MustMesh(4, 2)
	m.Reserve(0)
	ab := NewArbiter(m)
	if _, err := ab.Register("a", 0); err == nil {
		t.Error("reserved source must fail")
	}
	if _, err := ab.Register("a", 99); err == nil {
		t.Error("invalid source must fail")
	}
	app, err := ab.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Register("b", 1); err == nil {
		t.Error("double registration on one core must fail")
	}
	ab.Release(app)
	if len(ab.Apps()) != 0 || ab.FreeCores() != m.Usable() {
		t.Fatal("release did not return cores")
	}
}

// ownershipConsistent verifies the owner map and the apps' allotments
// agree exactly: every owned core belongs to exactly one registered app's
// allotment and vice versa.
func ownershipConsistent(t *testing.T, ab *Arbiter) {
	t.Helper()
	fromApps := map[topo.CoreID]string{}
	for _, app := range ab.Apps() {
		if !app.Allotment().Contains(app.Source()) {
			t.Fatalf("%s lost its source core %d", app.Name, app.Source())
		}
		for _, id := range app.Allotment().Members() {
			if prev, dup := fromApps[id]; dup {
				t.Fatalf("core %d in both %s and %s", id, prev, app.Name)
			}
			fromApps[id] = app.Name
		}
	}
	for id, app := range ab.owner {
		if fromApps[id] != app.Name {
			t.Fatalf("owner map has %d -> %s but allotments say %q", id, app.Name, fromApps[id])
		}
	}
	if len(ab.owner) != len(fromApps) {
		t.Fatalf("owner map has %d cores, allotments have %d (leak)", len(ab.owner), len(fromApps))
	}
}

func TestArbiterChurnNoOwnershipLeaks(t *testing.T) {
	// Register/release/re-register cycles with interleaved resizes must
	// never leak cores in the owner map and never strand a source.
	m := topo.MustMesh(9, 9)
	m.Reserve(0)
	sources := []topo.CoreID{
		m.ID(topo.Coord{X: 2, Y: 2}),
		m.ID(topo.Coord{X: 6, Y: 2}),
		m.ID(topo.Coord{X: 4, Y: 6}),
		m.ID(topo.Coord{X: 7, Y: 7}),
	}
	ab := NewArbiter(m)
	live := map[int]*App{}
	for round := 0; round < 50; round++ {
		idx := round % len(sources)
		if app, ok := live[idx]; ok {
			// Resize through a churny sequence before releasing.
			ab.Request(app, 1+(round*7)%30)
			ownershipConsistent(t, ab)
			ab.Release(app)
			delete(live, idx)
		} else {
			app, err := ab.Register("app", sources[idx])
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			ab.Request(app, 1+(round*11)%25)
			live[idx] = app
		}
		ownershipConsistent(t, ab)
	}
	for _, app := range live {
		ab.Release(app)
	}
	if len(ab.owner) != 0 || len(ab.Apps()) != 0 {
		t.Fatalf("after full release: %d owned cores, %d apps", len(ab.owner), len(ab.Apps()))
	}
	if ab.FreeCores() != m.Usable() {
		t.Fatalf("free = %d, want %d", ab.FreeCores(), m.Usable())
	}
}

func TestArbiterReRegisterSameSource(t *testing.T) {
	// A released source must be immediately reusable, and the fresh app
	// must get the same uncontended seed grant as the first registration.
	m := topo.MustMesh(6, 6)
	ab := NewArbiter(m)
	src := m.ID(topo.Coord{X: 3, Y: 3})
	for cycle := 0; cycle < 10; cycle++ {
		app, err := ab.Register("a", src)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if app.Allotment().Size() != 5 {
			t.Fatalf("cycle %d: seed grant %d, want 5", cycle, app.Allotment().Size())
		}
		ab.Request(app, 20)
		ownershipConsistent(t, ab)
		ab.Release(app)
		if ab.FreeCores() != m.Usable() {
			t.Fatalf("cycle %d: leaked %d cores", cycle, m.Usable()-ab.FreeCores())
		}
	}
}

func TestArbiterShrinkNeverReleasesSource(t *testing.T) {
	// Shrink requests below 1 clamp to 1 and the survivor is the source —
	// across churn, under contention, every time.
	m := topo.MustMesh(5, 5)
	ab := NewArbiter(m)
	a1, _ := ab.Register("a", m.ID(topo.Coord{X: 1, Y: 1}))
	a2, _ := ab.Register("b", m.ID(topo.Coord{X: 3, Y: 3}))
	for round := 0; round < 20; round++ {
		ab.Request(a1, 1+(round*5)%20)
		ab.Request(a2, 20-(round*3)%19)
		ab.Request(a1, -3) // hostile: clamps to 1
		if got := a1.Allotment().Size(); got != 1 {
			t.Fatalf("round %d: shrink to -3 gave size %d, want 1", round, got)
		}
		if !a1.Allotment().Contains(a1.Source()) {
			t.Fatalf("round %d: source released", round)
		}
		ownershipConsistent(t, ab)
	}
}
