package sysched

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"palirria/internal/topo"
)

func simMesh() (*topo.Mesh, topo.CoreID) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	return m, topo.CoreID(20)
}

func TestNewManagerDefaults(t *testing.T) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Current().Size() != 5 {
		t.Fatalf("initial size = %d, want 5", mgr.Current().Size())
	}
}

func TestNewManagerOptions(t *testing.T) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Current().Size() != 20 {
		t.Fatalf("initial size = %d, want 20", mgr.Current().Size())
	}
	if got := mgr.EffectiveMaxWorkers(); got != 27 {
		t.Fatalf("EffectiveMaxWorkers = %d, want 27 (d=4)", got)
	}
}

func TestNewManagerValidation(t *testing.T) {
	m, src := simMesh()
	if _, err := NewManager(m, src, -1, 0); err == nil {
		t.Error("negative diaspora must fail")
	}
	if _, err := NewManager(m, src, 9, 0); err == nil {
		t.Error("diaspora above max must fail")
	}
	if _, err := NewManager(m, topo.CoreID(0), 0, 0); err == nil {
		t.Error("reserved source must fail")
	}
	// Excessive max cap is clamped, not an error.
	mgr, err := NewManager(m, src, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(mgr.zones) != m.MaxDiaspora(src) {
		t.Fatal("max diaspora not clamped")
	}
}

func TestGrantJumpsToCoveringZone(t *testing.T) {
	m, src := simMesh()
	mgr, _ := NewManager(m, src, 0, 4)
	// A multiplicative desire (ASTEAL-style) is granted directly: 27
	// needs d=4.
	a, changed := mgr.Grant(27)
	if !changed || a.Size() != 27 {
		t.Fatalf("grant = (%d, %v), want (27, true)", a.Size(), changed)
	}
	// At the cap, further increase requests change nothing.
	a, changed = mgr.Grant(40)
	if changed || a.Size() != 27 {
		t.Fatalf("grant at cap = (%d, %v), want (27, false)", a.Size(), changed)
	}
	// A big shrink also jumps.
	a, changed = mgr.Grant(6)
	if !changed || a.Size() != 12 {
		t.Fatalf("shrink grant = (%d, %v), want (12, true)", a.Size(), changed)
	}
}

func TestGrantRoundsUpToZone(t *testing.T) {
	m, src := simMesh()
	mgr, _ := NewManager(m, src, 0, 4)
	// Desire 8 needs at least d=2 (12 workers): increment requests are
	// always satisfied at zone granularity.
	a, changed := mgr.Grant(8)
	if !changed || a.Size() != 12 {
		t.Fatalf("grant = (%d, %v), want (12, true)", a.Size(), changed)
	}
}

func TestGrantDecrease(t *testing.T) {
	m, src := simMesh()
	mgr, _ := NewManager(m, src, 3, 4)
	a, changed := mgr.Grant(5)
	if !changed || a.Size() != 5 {
		t.Fatalf("decrease = (%d, %v), want (5, true)", a.Size(), changed)
	}
	// Below the minimum nothing changes.
	a, changed = mgr.Grant(1)
	if changed || a.Size() != 5 {
		t.Fatalf("grant below min = (%d, %v), want (5, false)", a.Size(), changed)
	}
}

func TestGrantKeep(t *testing.T) {
	m, src := simMesh()
	mgr, _ := NewManager(m, src, 0, 0)
	if _, changed := mgr.Grant(5); changed {
		t.Fatal("grant of current size must not change anything")
	}
	// A desire within the current zone's size also keeps.
	if _, changed := mgr.Grant(4); changed {
		t.Fatal("desire 4 still fits d=1")
	}
}

func TestGrantSeriesLinux(t *testing.T) {
	m := topo.MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	mgr, err := NewManager(m, 28, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Stepping the desire one worker past the current size traverses the
	// exact allotment series of the paper's 48-core platform.
	sizes := []int{mgr.Current().Size()}
	for {
		a, changed := mgr.Grant(mgr.Current().Size() + 1)
		if !changed {
			break
		}
		sizes = append(sizes, a.Size())
	}
	want := []int{5, 13, 24, 35, 42, 45}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("growth series = %v, want %v", sizes, want)
	}
}

func TestManagerWorkerCapClampsGrants(t *testing.T) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped: the series tops out at 27.
	if got := mgr.EffectiveMaxWorkers(); got != 27 {
		t.Fatalf("uncapped EffectiveMaxWorkers = %d, want 27", got)
	}
	a, _ := mgr.Grant(27)
	if a.Size() != 27 {
		t.Fatalf("uncapped grant = %d, want 27", a.Size())
	}
	// Cap between zones: the largest fitting zone wins (cap 15 -> 12).
	mgr.SetWorkerCap(15)
	if got := mgr.EffectiveMaxWorkers(); got != 12 {
		t.Fatalf("capped EffectiveMaxWorkers = %d, want 12", got)
	}
	a, changed := mgr.Grant(27)
	if !changed || a.Size() != 12 {
		t.Fatalf("capped grant = %d (changed %v), want 12", a.Size(), changed)
	}
	// Cap below the minimal zone floors at zone 1.
	mgr.SetWorkerCap(2)
	if got := mgr.EffectiveMaxWorkers(); got != 5 {
		t.Fatalf("floor EffectiveMaxWorkers = %d, want 5 (zone-1 floor)", got)
	}
	a, _ = mgr.Grant(27)
	if a.Size() != 5 {
		t.Fatalf("floored grant = %d, want 5", a.Size())
	}
	// Lifting the cap restores the full series.
	mgr.SetWorkerCap(0)
	if got := mgr.EffectiveMaxWorkers(); got != 27 {
		t.Fatalf("uncapped again = %d, want 27", got)
	}
	a, _ = mgr.Grant(20)
	if a.Size() != 20 {
		t.Fatalf("grant after lift = %d, want 20", a.Size())
	}
}

func TestManagerWorkerCapExactZone(t *testing.T) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetWorkerCap(12)
	a, _ := mgr.Grant(100)
	if a.Size() != 12 {
		t.Fatalf("grant at exact zone cap = %d, want 12", a.Size())
	}
	if got := mgr.EffectiveMaxWorkers(); got != 12 {
		t.Fatalf("EffectiveMaxWorkers = %d, want 12", got)
	}
}

type platform struct {
	name string
	mesh *topo.Mesh
	src  topo.CoreID
}

// platforms are the meshes Grant serves: the paper's two platforms and
// the 4x2 serving mesh (no reservations, source 0).
func platforms() []platform {
	sim, simSrc := simMesh()
	numa := topo.MustMesh(8, 6)
	numa.Reserve(0, 1, 2)
	return []platform{
		{"8x4", sim, simSrc},
		{"8x6", numa, 28},
		{"4x2", topo.MustMesh(4, 2), 0},
	}
}

// TestGrantAllocatesNothing holds Grant to a table lookup: a grant that
// keeps the allotment and one that moves it across zones allocate
// nothing, capped or not.
func TestGrantAllocatesNothing(t *testing.T) {
	for _, p := range platforms() {
		t.Run(p.name, func(t *testing.T) {
			mgr, err := NewManager(p.mesh, p.src, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			top := mgr.EffectiveMaxWorkers()
			for _, desired := range []int{1, top} {
				mgr.Grant(desired)
				if n := testing.AllocsPerRun(100, func() { mgr.Grant(desired) }); n != 0 {
					t.Errorf("unchanged Grant(%d): %v allocs", desired, n)
				}
			}
			// The allotment is at the top zone: alternate floor and top.
			next := 1
			if n := testing.AllocsPerRun(100, func() {
				_, changed := mgr.Grant(next)
				next = 1 + top - next
				if !changed {
					t.Fatal("alternating grant did not change")
				}
			}); n != 0 {
				t.Errorf("changing Grant: %v allocs", n)
			}
			mgr.SetWorkerCap(top - 1)
			if n := testing.AllocsPerRun(100, func() { mgr.Grant(top) }); n != 0 {
				t.Errorf("capped Grant: %v allocs", n)
			}
		})
	}
}

// TestGrantConcurrentWithCap runs Grant in a loop while other goroutines
// move the worker cap and read EffectiveMaxWorkers and Current (run under
// -race). The cap only takes the values 12 and 20, so every allotment
// handed out must be an entry of the zone table no larger than 20.
func TestGrantConcurrentWithCap(t *testing.T) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	entry := map[*topo.Allotment]bool{}
	for _, a := range mgr.zones {
		entry[a] = true
	}
	check := func(what string, a *topo.Allotment) {
		if !entry[a] || a.Size() > 20 {
			t.Errorf("%s = %v (table entry %v), want a table entry of at most 20", what, a, entry[a])
		}
	}
	mgr.SetWorkerCap(20)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			mgr.SetWorkerCap(12 + 8*(i%2))
		}
	}()
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if n := mgr.EffectiveMaxWorkers(); n != 12 && n != 20 {
				t.Errorf("EffectiveMaxWorkers = %d, want 12 or 20", n)
			}
			check("Current", mgr.Current())
		}
	}()
	for i := 0; i < 20000; i++ {
		a, _ := mgr.Grant(1 + i%30)
		check("Grant", a)
	}
	stop.Store(true)
	wg.Wait()
	// With the cap settled, a large desire reaches exactly its zone.
	mgr.SetWorkerCap(12)
	if a, _ := mgr.Grant(100); a != mgr.zones[1] {
		t.Fatalf("Grant(100) under cap 12 = %v, want the d=2 entry", a)
	}
}

// BenchmarkGrant alternates the desire between the zone-1 floor and the
// largest zone of the 8x4 platform, so every grant changes the allotment.
func BenchmarkGrant(b *testing.B) {
	m, src := simMesh()
	mgr, err := NewManager(m, src, 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.Grant(5 + i%2*22)
	}
}
