package sim

import (
	"testing"

	"palirria/internal/topo"
)

func TestIdealModelIsFree(t *testing.T) {
	m := Ideal{}
	if m.Name() != "ideal" {
		t.Fatal("name wrong")
	}
	if m.ProbePenalty(1, 2) != 0 || m.StealPenalty(1, 2) != 0 ||
		m.MigrationPenalty(1, 2, 1<<30) != 0 || m.ComputeFactor(1, 48) != 1 {
		t.Fatal("ideal machine must charge nothing")
	}
}

func numaModel() (*NUMA, *topo.Mesh) {
	m := topo.MustMesh(8, 6)
	return NewNUMA(m), m
}

func TestNUMANodeMapping(t *testing.T) {
	n, m := numaModel()
	// Node = column: cores (x, *) share a node; socket = column pair.
	a := m.ID(topo.Coord{X: 3, Y: 0})
	b := m.ID(topo.Coord{X: 3, Y: 5})
	c := m.ID(topo.Coord{X: 2, Y: 0}) // same socket (columns 2,3), other node
	d := m.ID(topo.Coord{X: 7, Y: 0}) // other socket
	if n.ProbePenalty(a, b) != 0 {
		t.Fatal("same-node probe penalized")
	}
	if n.ProbePenalty(a, c) != n.RemoteProbe || n.ProbePenalty(a, d) != n.RemoteProbe {
		t.Fatal("off-node probe not penalized")
	}
	if n.StealPenalty(a, b) != n.NodeSteal {
		t.Fatal("same-node steal penalty wrong")
	}
	if n.StealPenalty(a, c) != n.SocketSteal {
		t.Fatal("same-socket steal penalty wrong")
	}
	if n.StealPenalty(a, d) != n.RemoteSteal {
		t.Fatal("cross-socket steal penalty wrong")
	}
}

func TestNUMAMigrationScaling(t *testing.T) {
	n, m := numaModel()
	a := m.ID(topo.Coord{X: 3, Y: 0})
	b := m.ID(topo.Coord{X: 3, Y: 5}) // same node
	c := m.ID(topo.Coord{X: 2, Y: 0}) // same socket
	d := m.ID(topo.Coord{X: 7, Y: 0}) // remote socket
	const fp = 32 * 1024
	if n.MigrationPenalty(a, b, fp) != 0 {
		t.Fatal("same-node migration penalized")
	}
	sameSocket := n.MigrationPenalty(a, c, fp)
	remote := n.MigrationPenalty(a, d, fp)
	if sameSocket != fp/n.BytesPerCycle {
		t.Fatalf("same-socket warmup = %d, want %d", sameSocket, fp/n.BytesPerCycle)
	}
	if remote != 2*sameSocket {
		t.Fatalf("remote warmup = %d, want 2x same-socket %d", remote, sameSocket)
	}
	// The cap binds for giant footprints.
	if got := n.MigrationPenalty(a, d, 1<<40); got != n.WarmupCap {
		t.Fatalf("capped warmup = %d, want %d", got, n.WarmupCap)
	}
	// Zero footprint is free.
	if n.MigrationPenalty(a, d, 0) != 0 {
		t.Fatal("zero footprint penalized")
	}
}

// TestNUMAPenaltiesTable checks every (thief, victim) pair of the reserved
// 8x6 mesh against the division formula for the core's column, so a change
// to how topo.Mesh finds coordinates cannot move a penalty.
func TestNUMAPenaltiesTable(t *testing.T) {
	m := topo.MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	n := NewNUMA(m)
	node := func(id topo.CoreID) int { return int(id) % 8 }
	for a := topo.CoreID(0); int(a) < m.NumCores(); a++ {
		for b := topo.CoreID(0); int(b) < m.NumCores(); b++ {
			probe, steal, warm := n.RemoteProbe, n.RemoteSteal, int64(2*64*1024)
			switch {
			case node(a) == node(b):
				probe, steal, warm = 0, n.NodeSteal, 0
			case node(a)/2 == node(b)/2:
				steal, warm = n.SocketSteal, 64*1024
			}
			if got := n.ProbePenalty(a, b); got != probe {
				t.Fatalf("ProbePenalty(%d, %d) = %d, want %d", a, b, got, probe)
			}
			if got := n.StealPenalty(a, b); got != steal {
				t.Fatalf("StealPenalty(%d, %d) = %d, want %d", a, b, got, steal)
			}
			if got := n.MigrationPenalty(a, b, 64*1024); got != warm {
				t.Fatalf("MigrationPenalty(%d, %d, 64K) = %d, want %d", a, b, got, warm)
			}
			if capped := n.MigrationPenalty(a, b, 1<<20); warm != 0 && capped != n.WarmupCap {
				t.Fatalf("MigrationPenalty(%d, %d, 1M) = %d, want the cap %d", a, b, capped, n.WarmupCap)
			}
		}
	}
}

// armCounter wraps NUMA and tallies which penalty arms a run reaches.
type armCounter struct {
	*NUMA
	steal  map[int64]int
	capped int
}

func (c *armCounter) StealPenalty(thief, victim topo.CoreID) int64 {
	p := c.NUMA.StealPenalty(thief, victim)
	c.steal[p]++
	return p
}

func (c *armCounter) MigrationPenalty(origin, thief topo.CoreID, footprint int64) int64 {
	p := c.NUMA.MigrationPenalty(origin, thief, footprint)
	if p == c.WarmupCap {
		c.capped++
	}
	return p
}

// TestNUMASortCaseReachesEveryArm backs the asteal-random-sort-numa
// fingerprint case's reason for existing: its steals reach all three
// StealPenalty arms and at least one capped MigrationPenalty.
func TestNUMASortCaseReachesEveryArm(t *testing.T) {
	for _, c := range fingerprintCases() {
		if c.name != "asteal-random-sort-numa" {
			continue
		}
		cfg := c.single()
		arms := &armCounter{NUMA: cfg.Machine.(*NUMA), steal: map[int64]int{}}
		cfg.Machine = arms
		mustRun(t, cfg)
		n := arms.NUMA
		for _, p := range []int64{n.NodeSteal, n.SocketSteal, n.RemoteSteal} {
			if arms.steal[p] == 0 {
				t.Errorf("no steal paid the %d-cycle arm: %v", p, arms.steal)
			}
		}
		if arms.capped == 0 {
			t.Error("no migration reached WarmupCap")
		}
		return
	}
	t.Fatal("asteal-random-sort-numa is not a fingerprint case")
}

func TestNUMAComputeFactor(t *testing.T) {
	n, _ := numaModel()
	if n.ComputeFactor(0, 48) != 1 {
		t.Fatal("compute-bound tasks must not inflate")
	}
	if n.ComputeFactor(0.5, 1) != 1 {
		t.Fatal("single worker must not inflate")
	}
	// Linear in (workers-1), scaled by memBound.
	if got := n.ComputeFactor(1.0, 11); got != 11 {
		t.Fatalf("factor(1.0, 11) = %v, want 11", got)
	}
	if got := n.ComputeFactor(0.5, 11); got != 6 {
		t.Fatalf("factor(0.5, 11) = %v, want 6", got)
	}
}

func TestDefaultCostsSane(t *testing.T) {
	c := DefaultCosts()
	// The paper's framing: spawn is tens of cycles, steal a few hundred.
	if c.Spawn <= 0 || c.Spawn > 100 {
		t.Fatalf("Spawn = %d", c.Spawn)
	}
	if c.Steal < 100 || c.Steal > 1000 {
		t.Fatalf("Steal = %d", c.Steal)
	}
	if c.BackoffMax < c.Backoff {
		t.Fatal("BackoffMax below Backoff")
	}
}
