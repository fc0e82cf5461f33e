package topo

import (
	"reflect"
	"testing"
	"testing/quick"
)

// simPlatform returns the paper's simulated platform: 32-core 8x4 mesh
// running Barrelfish, cores 0 and 1 reserved, source on core 20.
func simPlatform(t testing.TB) (*Mesh, CoreID) {
	t.Helper()
	m := MustMesh(8, 4)
	m.Reserve(0, 1)
	return m, CoreID(20)
}

// numaPlatform returns the paper's real-hardware platform as modelled: a
// 48-core 8x6 mesh with cores 0, 1 and 2 reserved and source core 28.
// Reserving core 2 in addition to the paper's stated 0 and 1 is required to
// reproduce the exact fixed allotment series 5, 13, 24, 35, 42, 45 the paper
// reports (see DESIGN.md).
func numaPlatform(t testing.TB) (*Mesh, CoreID) {
	t.Helper()
	m := MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	return m, CoreID(28)
}

// zoneSizes returns the sizes of source's complete allotments for
// diaspora 1..maxD.
func zoneSizes(t testing.TB, m *Mesh, source CoreID, maxD int) []int {
	t.Helper()
	zones, err := Zones(m, source, maxD)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(zones))
	for i, a := range zones {
		sizes[i] = a.Size()
	}
	return sizes
}

func TestZoneSeriesMatchesPaperSimulator(t *testing.T) {
	m, src := simPlatform(t)
	got := zoneSizes(t, m, src, 4)
	want := []int{5, 12, 20, 27}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("8x4 zone series = %v, want %v (paper fixed allotments)", got, want)
	}
}

func TestZoneSeriesMatchesPaperLinux(t *testing.T) {
	m, src := numaPlatform(t)
	got := zoneSizes(t, m, src, 6)
	want := []int{5, 13, 24, 35, 42, 45}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("8x6 zone series = %v, want %v (paper fixed allotments)", got, want)
	}
}

func TestNewAllotmentValidation(t *testing.T) {
	m, _ := simPlatform(t)
	if _, err := NewAllotment(m, CoreID(99), 1); err == nil {
		t.Error("expected error for invalid source")
	}
	if _, err := NewAllotment(m, CoreID(0), 1); err == nil {
		t.Error("expected error for reserved source")
	}
	if _, err := NewAllotment(m, CoreID(20), 0); err == nil {
		t.Error("expected error for diaspora 0")
	}
}

func TestAllotmentBasics(t *testing.T) {
	m, src := simPlatform(t)
	a, err := NewAllotment(m, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 5 {
		t.Fatalf("Size = %d, want 5", a.Size())
	}
	if a.Source() != src || a.Diaspora() != 1 {
		t.Fatalf("source/diaspora wrong: %v", a)
	}
	if !a.Contains(src) {
		t.Fatal("allotment must contain the source")
	}
	if a.ZoneOf(src) != 0 {
		t.Fatal("source must be in zone 0")
	}
	if z1 := a.Zone(1); len(z1) != 4 {
		t.Fatalf("zone 1 has %d members, want 4", len(z1))
	}
	if z0 := a.Zone(0); len(z0) != 1 || z0[0] != src {
		t.Fatalf("zone 0 = %v, want [%d]", z0, src)
	}
}

func TestMembersSortedByZoneThenID(t *testing.T) {
	m, src := simPlatform(t)
	a, _ := NewAllotment(m, src, 3)
	prev := -1
	prevID := CoreID(-1)
	for _, id := range a.Members() {
		z := a.ZoneOf(id)
		if z < prev || (z == prev && id <= prevID) {
			t.Fatalf("members not sorted by (zone,id) at %d", id)
		}
		if z != prev {
			prev, prevID = z, CoreID(-1)
		}
		prevID = id
	}
}

// TestGrowShrinkRoundTrip walks the complete allotments outward: each
// one's GrownSize is the next one's size and its ShrunkSize the previous
// one's, with the minimal allotment shrinking to itself.
func TestGrowShrinkRoundTrip(t *testing.T) {
	m, src := simPlatform(t)
	// 8x4 with 2 reserved: 5, 12, 20, 27, then 30 (the three far edge cores).
	want := []int{5, 12, 20, 27, 30}
	for i, n := range want {
		a, err := NewAllotment(m, src, i+1)
		if err != nil {
			t.Fatal(err)
		}
		grown, shrunk := n, n
		if i+1 < len(want) {
			grown = want[i+1]
		}
		if i > 0 {
			shrunk = want[i-1]
		}
		if a.Size() != n || a.GrownSize() != grown || a.ShrunkSize() != shrunk {
			t.Fatalf("d=%d: size/grown/shrunk = %d/%d/%d, want %d/%d/%d",
				i+1, a.Size(), a.GrownSize(), a.ShrunkSize(), n, grown, shrunk)
		}
	}
}

func TestGrowAtMaxFails(t *testing.T) {
	m, src := simPlatform(t)
	a, _ := NewAllotment(m, src, m.MaxDiaspora(src))
	if a.GrownSize() != a.Size() {
		t.Fatalf("growing past the last zone must add nothing: %d -> %d", a.Size(), a.GrownSize())
	}
}

func TestNewAllotmentFromCores(t *testing.T) {
	m, src := simPlatform(t)
	// An incomplete allotment: the source plus two scattered cores.
	a, err := NewAllotmentFromCores(m, src, []CoreID{21, 22, 22})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size() != 3 {
		t.Fatalf("Size = %d, want 3 (dedup + implicit source)", a.Size())
	}
	if a.Diaspora() != 2 {
		t.Fatalf("Diaspora = %d, want 2", a.Diaspora())
	}
	if _, err := NewAllotmentFromCores(m, src, []CoreID{0}); err == nil {
		t.Error("expected error for reserved member")
	}
	if _, err := NewAllotmentFromCores(m, src, []CoreID{99}); err == nil {
		t.Error("expected error for invalid member")
	}
}

func TestZonePartition(t *testing.T) {
	// Property: zones partition the members, and every member's ZoneOf
	// equals its hop count from the source.
	m, src := numaPlatform(t)
	f := func(dRaw uint8) bool {
		d := 1 + int(dRaw)%6
		a, err := NewAllotment(m, src, d)
		if err != nil {
			return false
		}
		total := 0
		for k := 0; k <= a.Diaspora(); k++ {
			for _, id := range a.Zone(k) {
				if a.ZoneOf(id) != k {
					return false
				}
				total++
			}
		}
		return total == a.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZonesMatchNewAllotment holds every entry of the zone table to the
// allotment NewAllotment builds from scratch, member for member, up to the
// mesh maximum.
func TestZonesMatchNewAllotment(t *testing.T) {
	sim, simSrc := simPlatform(t)
	numa, numaSrc := numaPlatform(t)
	// On 8x4 from core 9 = (1,1), ring 7 is {7, 23, 30} and ring 8 is {31}:
	// reserving ring 7 leaves a diaspora whose zone adds nothing.
	holed := MustMesh(8, 4)
	holed.Reserve(7, 23, 30)
	cases := []struct {
		name    string
		m       *Mesh
		src     CoreID
		wantLen int
	}{
		{"sim 8x4", sim, simSrc, 5},
		{"numa 8x6", numa, numaSrc, 6},
		{"1-D 32", MustMesh(32), 5, 26},
		{"reserved ring", holed, 9, 8},
		{"single core", MustMesh(1), 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			zones, err := Zones(c.m, c.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(zones) != c.wantLen {
				t.Fatalf("len(Zones) = %d, want %d", len(zones), c.wantLen)
			}
			for d := 1; d <= len(zones); d++ {
				want, err := NewAllotment(c.m, c.src, d)
				if err != nil {
					t.Fatal(err)
				}
				got := zones[d-1]
				if !reflect.DeepEqual(got.Members(), want.Members()) || got.Diaspora() != want.Diaspora() ||
					got.GrownSize() != want.GrownSize() || got.ShrunkSize() != want.ShrunkSize() ||
					!reflect.DeepEqual(Classify(got).classOf, Classify(want).classOf) {
					t.Fatalf("Zones[%d] = %v %v, NewAllotment(%d) = %v %v",
						d-1, got, got.Members(), d, want, want.Members())
				}
				for id := CoreID(0); int(id) < c.m.NumCores(); id++ {
					if got.Contains(id) != want.Contains(id) {
						t.Fatalf("Zones[%d].Contains(%d) = %v", d-1, id, got.Contains(id))
					}
				}
			}
		})
	}
	// The reserved ring adds nothing: its entry is the one before it.
	zones, _ := Zones(holed, 9, 0)
	if zones[6] != zones[5] {
		t.Fatal("a zone with no usable core must repeat the previous entry")
	}
	// An explicit maxD caps the table; one beyond the mesh is clamped.
	if got := zoneSizes(t, sim, simSrc, 4); len(got) != 4 {
		t.Fatalf("Zones(maxD=4) has %d entries", len(got))
	}
	if got := zoneSizes(t, sim, simSrc, 99); len(got) != 5 {
		t.Fatalf("Zones(maxD=99) has %d entries, want the mesh maximum 5", len(got))
	}
	if _, err := Zones(sim, 0, 0); err == nil {
		t.Error("reserved source must fail")
	}
	if _, err := Zones(sim, 99, 0); err == nil {
		t.Error("invalid source must fail")
	}
}

func TestZoneOfPanicsForNonMember(t *testing.T) {
	m, src := simPlatform(t)
	a, _ := NewAllotment(m, src, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ZoneOf(non-member)")
		}
	}()
	a.ZoneOf(CoreID(7))
}
