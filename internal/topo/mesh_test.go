package topo

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMeshDims(t *testing.T) {
	cases := []struct {
		dims    []int
		cores   int
		wantErr bool
	}{
		{[]int{8}, 8, false},
		{[]int{8, 4}, 32, false},
		{[]int{8, 6}, 48, false},
		{[]int{4, 4, 4}, 64, false},
		{[]int{}, 0, true},
		{[]int{1, 2, 3, 4}, 0, true},
		{[]int{0, 4}, 0, true},
		{[]int{4, -1}, 0, true},
	}
	for _, c := range cases {
		m, err := NewMesh(c.dims...)
		if c.wantErr {
			if err == nil {
				t.Errorf("NewMesh(%v): expected error", c.dims)
			}
			continue
		}
		if err != nil {
			t.Fatalf("NewMesh(%v): %v", c.dims, err)
		}
		if m.NumCores() != c.cores {
			t.Errorf("NewMesh(%v).NumCores() = %d, want %d", c.dims, m.NumCores(), c.cores)
		}
	}
}

func TestParseMesh(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int // nil: the string must be refused
	}{
		{"8x4", []int{8, 4}},
		{"4x4x4", []int{4, 4, 4}},
		{"16", []int{16}},
		{" 4X4 ", []int{4, 4}},
		{"axb", nil},
		{"0x4", nil},
		{"8x4x2x1", nil},
		{"", nil},
	} {
		got, err := ParseMesh(tc.in)
		if (err == nil) != (tc.want != nil) || !slices.Equal(got, tc.want) {
			t.Errorf("ParseMesh(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := MustMesh(8, 6)
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip failed for %d: got %d", id, got)
		}
	}
}

func TestCoordIDRoundTrip3D(t *testing.T) {
	m := MustMesh(3, 4, 5)
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("round trip failed for %d: got %d", id, got)
		}
	}
}

// TestCoordTable checks Coord against the row-major division formula on
// 1-, 2- and 3-dimensional meshes, reserved or not, and on their clones:
// ID inverts it, an invalid id still panics, and a lookup allocates nothing.
func TestCoordTable(t *testing.T) {
	meshes := map[string]func() *Mesh{
		"5":     func() *Mesh { return MustMesh(5) },
		"3x1":   func() *Mesh { return MustMesh(3, 1) },
		"8x4":   func() *Mesh { return MustMesh(8, 4) },
		"8x4r":  func() *Mesh { m := MustMesh(8, 4); m.Reserve(0, 1); return m },
		"8x6":   func() *Mesh { return MustMesh(8, 6) },
		"4x3x2": func() *Mesh { return MustMesh(4, 3, 2) },
	}
	for name, mk := range meshes {
		m := mk()
		dx, dy, _ := m.Dims()
		for _, mm := range []*Mesh{m, m.Clone()} {
			for id := CoreID(0); int(id) < mm.NumCores(); id++ {
				i := int(id)
				want := Coord{X: i % dx, Y: i / dx % dy, Z: i / dx / dy}
				if got := mm.Coord(id); got != want {
					t.Fatalf("%s: Coord(%d) = %+v, want %+v", name, id, got, want)
				}
				if got := mm.ID(mm.Coord(id)); got != id {
					t.Fatalf("%s: ID(Coord(%d)) = %d", name, id, got)
				}
			}
			for _, bad := range []CoreID{-1, CoreID(mm.NumCores())} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: Coord(%d) did not panic", name, bad)
						}
					}()
					mm.Coord(bad)
				}()
			}
		}
		last := CoreID(m.NumCores() - 1)
		if n := testing.AllocsPerRun(100, func() { _ = m.Coord(last) }); n != 0 {
			t.Errorf("%s: Coord allocates %v times", name, n)
		}
	}
}

func TestIDOutOfBounds(t *testing.T) {
	m := MustMesh(8, 4)
	for _, c := range []Coord{{X: -1}, {X: 8}, {Y: -1}, {Y: 4}, {Z: 1}, {X: 8, Y: 4}} {
		if got := m.ID(c); got != NoCore {
			t.Errorf("ID(%+v) = %d, want NoCore", c, got)
		}
	}
}

func TestRowMajorLayout(t *testing.T) {
	// Paper Fig. 9(a): core 20 on the 8x4 mesh is at (4, 2).
	m := MustMesh(8, 4)
	if c := m.Coord(20); c != (Coord{X: 4, Y: 2}) {
		t.Fatalf("core 20 = %+v, want (4,2)", c)
	}
	// Paper Fig. 9(b): core 28 on the 8x6 mesh is at (4, 3).
	m = MustMesh(8, 6)
	if c := m.Coord(28); c != (Coord{X: 4, Y: 3}) {
		t.Fatalf("core 28 = %+v, want (4,3)", c)
	}
}

func TestHopCountProperties(t *testing.T) {
	m := MustMesh(8, 6)
	n := CoreID(m.NumCores())
	// Symmetry and identity.
	f := func(ai, bi uint8) bool {
		a, b := CoreID(ai)%n, CoreID(bi)%n
		if m.HopCount(a, a) != 0 {
			return false
		}
		return m.HopCount(a, b) == m.HopCount(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Triangle inequality.
	g := func(ai, bi, ci uint8) bool {
		a, b, c := CoreID(ai)%n, CoreID(bi)%n, CoreID(ci)%n
		return m.HopCount(a, c) <= m.HopCount(a, b)+m.HopCount(b, c)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsNoWrap(t *testing.T) {
	m := MustMesh(8, 4)
	// Corner (0,0) has exactly 2 neighbours; no wrap-around.
	if _, k := m.Neighbors(m.ID(Coord{X: 0, Y: 0})); k != 2 {
		t.Fatalf("corner has %d neighbours, want 2", k)
	}
	// Interior core has 4.
	nb, k := m.Neighbors(m.ID(Coord{X: 4, Y: 2}))
	if k != 4 {
		t.Fatalf("interior core has %d neighbours, want 4: %v", k, nb[:k])
	}
	for _, n := range nb[:k] {
		if m.HopCount(m.ID(Coord{X: 4, Y: 2}), n) != 1 {
			t.Fatalf("neighbour %d not at distance 1", n)
		}
	}
}

func TestNeighbors3D(t *testing.T) {
	m := MustMesh(3, 3, 3)
	center := m.ID(Coord{X: 1, Y: 1, Z: 1})
	if _, k := m.Neighbors(center); k != 6 {
		t.Fatalf("3D interior core has %d neighbours, want 6", k)
	}
}

// TestNeighborsAllocatesNothing pins the value return: classifying an
// allotment calls Neighbors once per member.
func TestNeighborsAllocatesNothing(t *testing.T) {
	m := MustMesh(8, 6)
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		for id := CoreID(0); int(id) < m.NumCores(); id++ {
			_, k := m.Neighbors(id)
			sink += k
		}
	}); n != 0 {
		t.Fatalf("Neighbors allocates %v times per mesh sweep, want 0", n)
	}
	if sink == 0 {
		t.Fatal("no neighbours found")
	}
}

func TestRingPartitionsWithinDistance(t *testing.T) {
	m := MustMesh(8, 6)
	center := CoreID(28)
	total := 0
	for d := 0; d <= 20; d++ {
		total += len(m.Ring(center, d))
	}
	if total != m.NumCores() {
		t.Fatalf("rings cover %d cores, want %d", total, m.NumCores())
	}
	// WithinDistance(d) = union of rings 0..d.
	for d := 0; d <= 6; d++ {
		want := 0
		for k := 0; k <= d; k++ {
			want += len(m.Ring(center, k))
		}
		if got := len(m.WithinDistance(center, d)); got != want {
			t.Fatalf("WithinDistance(%d) = %d cores, want %d", d, got, want)
		}
	}
}

func TestReserve(t *testing.T) {
	m := MustMesh(8, 4)
	if m.Usable() != 32 {
		t.Fatalf("Usable = %d, want 32", m.Usable())
	}
	m.Reserve(0, 1)
	m.Reserve(1) // idempotent
	if m.Usable() != 30 {
		t.Fatalf("Usable = %d, want 30", m.Usable())
	}
	if !m.Reserved(0) || !m.Reserved(1) || m.Reserved(2) {
		t.Fatal("reservation flags wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustMesh(4, 4)
	c := m.Clone()
	m.Reserve(3)
	if c.Reserved(3) {
		t.Fatal("clone shares reservation state")
	}
}

func TestMaxDiaspora(t *testing.T) {
	m := MustMesh(8, 4)
	m.Reserve(0, 1)
	// From (4,2), the farthest usable core: (0,0) is reserved; (7,0) gives
	// 3+2=5; (0,1)=4+1=5; (0,3)=4+1=5.
	if d := m.MaxDiaspora(20); d != 5 {
		t.Fatalf("MaxDiaspora(20) = %d, want 5", d)
	}
}

func TestString(t *testing.T) {
	m := MustMesh(8, 4)
	m.Reserve(0, 1)
	if s := m.String(); s != "mesh 8x4 (32 cores, 2 reserved)" {
		t.Fatalf("String() = %q", s)
	}
	m1 := MustMesh(16)
	if s := m1.String(); s != "mesh 16 (16 cores, 0 reserved)" {
		t.Fatalf("String() = %q", s)
	}
}
