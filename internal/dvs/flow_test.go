package dvs

import (
	"testing"

	"palirria/internal/topo"
	"palirria/internal/xrand"
)

func TestFlowConnectedCompleteAllotments(t *testing.T) {
	// Every complete allotment on both evaluation platforms is flow-
	// connected under DVS: the §4.1.1 task-discovery guarantee.
	cases := []struct {
		dims []int
		res  []topo.CoreID
		src  topo.CoreID
		maxD int
	}{
		{[]int{8, 4}, []topo.CoreID{0, 1}, 20, 5},
		{[]int{8, 6}, []topo.CoreID{0, 1, 2}, 28, 6},
		{[]int{16}, nil, 8, 7},
		{[]int{4, 4, 4}, nil, 21, 6},
	}
	for _, c := range cases {
		m := topo.MustMesh(c.dims...)
		m.Reserve(c.res...)
		for d := 1; d <= c.maxD; d++ {
			if d > m.MaxDiaspora(c.src) {
				break
			}
			a, err := topo.NewAllotment(m, c.src, d)
			if err != nil {
				t.Fatal(err)
			}
			p := New(topo.Classify(a))
			if missing := Unreachable(p, a); len(missing) != 0 {
				t.Fatalf("%v d=%d: unreachable workers %v", c.dims, d, missing)
			}
		}
	}
}

func TestFlowConnectedRandomIncompleteAllotments(t *testing.T) {
	// Scattered multiprogrammed allotments (random member subsets) must
	// stay flow-connected thanks to the lower-priority fallback victims.
	m := topo.MustMesh(8, 6)
	rng := xrand.NewXoshiro256(1234)
	for trial := 0; trial < 200; trial++ {
		src := topo.CoreID(rng.Intn(m.NumCores()))
		var cores []topo.CoreID
		for id := topo.CoreID(0); int(id) < m.NumCores(); id++ {
			if id != src && rng.Float64() < 0.4 {
				cores = append(cores, id)
			}
		}
		a, err := topo.NewAllotmentFromCores(m, src, cores)
		if err != nil {
			t.Fatal(err)
		}
		p := New(topo.Classify(a))
		if missing := Unreachable(p, a); len(missing) != 0 {
			t.Fatalf("trial %d (src %d, %d workers): unreachable %v",
				trial, src, a.Size(), missing)
		}
	}
}

func TestFlowConnectedRandomPolicy(t *testing.T) {
	// Random victim selection is trivially connected (everyone lists
	// everyone).
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, _ := topo.NewAllotment(m, 20, 4)
	p := NewRandom(a, 3)
	if !FlowConnected(p, a) {
		t.Fatal("random policy disconnected")
	}
}

func TestMaxFlowDistance(t *testing.T) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, _ := topo.NewAllotment(m, 20, 4)
	dvsPol := New(topo.Classify(a))
	randPol := NewRandom(a, 3)
	dDVS := MaxFlowDistance(dvsPol, a)
	dRand := MaxFlowDistance(randPol, a)
	if dRand != 1 {
		t.Fatalf("random flow distance = %d, want 1", dRand)
	}
	// DVS relays hop by hop: at least the diaspora, at most a small
	// multiple of it.
	if dDVS < a.Diaspora() {
		t.Fatalf("DVS flow distance %d below diaspora %d", dDVS, a.Diaspora())
	}
	if dDVS > 3*a.Diaspora() {
		t.Fatalf("DVS flow distance %d too large for diaspora %d", dDVS, a.Diaspora())
	}
}

func TestUnreachableDetectsBrokenPolicy(t *testing.T) {
	// A policy with empty victim lists disconnects everyone but the
	// source.
	m := topo.MustMesh(4, 2)
	a, _ := topo.NewAllotment(m, 0, 2)
	broken := brokenPolicy{}
	missing := Unreachable(broken, a)
	if len(missing) != a.Size()-1 {
		t.Fatalf("missing = %d, want %d", len(missing), a.Size()-1)
	}
}

type brokenPolicy struct{}

func (brokenPolicy) Name() string                      { return "broken" }
func (brokenPolicy) Victims(topo.CoreID) []topo.CoreID { return nil }
func (brokenPolicy) VictimsInto(_ topo.CoreID, buf []topo.CoreID) []topo.CoreID {
	return buf
}
