package topo

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// refGrow is the allotment extended by the complete next zone Z_{d+1},
// built member by member; ok is false, and a is returned, when no usable
// core lies at distance d+1. GrownSize must equal its size.
func refGrow(a *Allotment) (next *Allotment, ok bool) {
	d := a.diaspora + 1
	added := false
	members := append([]CoreID(nil), a.members...)
	for _, id := range a.mesh.Ring(a.source, d) {
		if a.mesh.Reserved(id) || a.isMember[id] {
			continue
		}
		members = append(members, id)
		added = true
	}
	if !added {
		return a, false
	}
	n, err := newAllotmentFromMembers(a.mesh, a.source, members)
	if err != nil {
		return a, false
	}
	return n, true
}

// refShrink is the allotment with the outermost zone Z_d removed; ok is
// false, and a is returned, at the minimum (d <= 1). ShrunkSize must
// equal its size.
func refShrink(a *Allotment) (next *Allotment, ok bool) {
	if a.diaspora <= 1 {
		return a, false
	}
	var members []CoreID
	for _, id := range a.members {
		if a.mesh.HopCount(a.source, id) < a.diaspora {
			members = append(members, id)
		}
	}
	n, err := newAllotmentFromMembers(a.mesh, a.source, members)
	if err != nil {
		return a, false
	}
	return n, true
}

// refOuterVictims is O_w found by scanning w's neighbours, the list
// OuterVictims must return.
func refOuterVictims(a *Allotment, w CoreID) []CoreID {
	zw := a.ZoneOf(w)
	var out []CoreID
	nb, k := a.mesh.Neighbors(w)
	for _, n := range nb[:k] {
		if a.Contains(n) && a.ZoneOf(n) == zw+1 {
			out = append(out, n)
		}
	}
	return out
}

// checkGeometry holds a's stored sizes and outer victims to the
// references, and its classification to one value read for free.
func checkGeometry(t *testing.T, a *Allotment) {
	t.Helper()
	want := a.Size()
	if g, ok := refGrow(a); ok {
		want = g.Size()
	}
	if a.GrownSize() != want {
		t.Fatalf("%v: GrownSize %d, reference %d", a, a.GrownSize(), want)
	}
	want = a.Size()
	if s, ok := refShrink(a); ok {
		want = s.Size()
	}
	if a.ShrunkSize() != want {
		t.Fatalf("%v: ShrunkSize %d, reference %d", a, a.ShrunkSize(), want)
	}
	c := Classify(a)
	for _, w := range a.Members() {
		got, ref := c.OuterVictims(w), refOuterVictims(a, w)
		if len(got) != len(ref) || len(ref) > 0 && !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v: OuterVictims(%d) = %v, scan %v", a, w, got, ref)
		}
		if cap(got) != len(got) {
			t.Fatalf("%v: OuterVictims(%d) has spare capacity %d", a, w, cap(got)-len(got))
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if Classify(a) != c {
			t.Fatalf("%v: Classify returned a different pointer", a)
		}
	}); allocs != 0 {
		t.Fatalf("%v: Classify allocates %.0f times", a, allocs)
	}
}

// FuzzAllotmentGeometry builds random 1- to 3-D meshes (each extent at
// most 8) with random reservations and source, and checks every zone
// table entry and random member subsets against the reference zone
// arithmetic and neighbour scan.
func FuzzAllotmentGeometry(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(1), uint64(1))
	f.Add(uint8(8), uint8(6), uint8(1), uint64(2))
	f.Add(uint8(4), uint8(4), uint8(4), uint64(3))
	f.Add(uint8(8), uint8(1), uint8(1), uint64(4))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, x, y, z uint8, seed uint64) {
		m := MustMesh(int(x%8)+1, int(y%8)+1, int(z%8)+1)
		rng := rand.New(rand.NewPCG(seed, seed>>32))
		// Reserve up to a quarter of the cores, then pick the source
		// among the rest.
		var usable []CoreID
		for id := CoreID(0); int(id) < m.NumCores(); id++ {
			if rng.IntN(4) == 0 {
				m.Reserve(id)
			} else {
				usable = append(usable, id)
			}
		}
		if len(usable) == 0 {
			return
		}
		src := usable[rng.IntN(len(usable))]
		zones, err := Zones(m, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range zones {
			checkGeometry(t, a)
		}
		for i := 0; i < 3; i++ {
			var cores []CoreID
			for _, id := range usable {
				if rng.IntN(2) == 0 {
					cores = append(cores, id)
				}
			}
			a, err := NewAllotmentFromCores(m, src, cores)
			if err != nil {
				t.Fatal(err)
			}
			checkGeometry(t, a)
		}
	})
}

// TestClassifyIsStored shows that Classify reads the classification built
// with the allotment: the same pointer every call and no allocation, for
// a zone table entry and for an explicit member set.
func TestClassifyIsStored(t *testing.T) {
	m, src := simPlatform(t)
	zones, err := Zones(m, src, 4)
	if err != nil {
		t.Fatal(err)
	}
	scattered, err := NewAllotmentFromCores(m, src, []CoreID{21, 22, 9, 31})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Allotment{zones[3], scattered} {
		c := Classify(a)
		if c == nil || c.Allotment() != a {
			t.Fatalf("%v: classification %p describes another allotment", a, c)
		}
		var same bool
		if allocs := testing.AllocsPerRun(100, func() { same = Classify(a) == c }); allocs != 0 || !same {
			t.Fatalf("%v: Classify allocates %.0f times, same pointer %v", a, allocs, same)
		}
	}
}
