package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/metrics"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

func TestTenancyRedistributesByDesire(t *testing.T) {
	// Two resident pools on one arbitration mesh. Pool "hot" takes a
	// sustained burst, pool "cold" stays idle: re-arbitration must move
	// the worker shares toward the hot pool, and the shares must stay
	// disjoint within the machine model.
	mkPool := func(name string) *Pool {
		p, err := New(Config{
			Name: name,
			Runtime: wsrt.Config{
				Mesh:    topo.MustMesh(4, 4),
				Source:  5,
				Quantum: 500 * time.Microsecond,
			},
			QueueCap: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hot, cold := mkPool("hot"), mkPool("cold")

	machine := topo.MustMesh(8, 4)
	ten := NewTenancy(machine, time.Hour) // driven manually
	if err := ten.Attach(hot, machine.ID(topo.Coord{X: 1, Y: 1})); err != nil {
		t.Fatal(err)
	}
	if err := ten.Attach(cold, machine.ID(topo.Coord{X: 6, Y: 2})); err != nil {
		t.Fatal(err)
	}
	if err := ten.Attach(hot, machine.ID(topo.Coord{X: 3, Y: 3})); err == nil {
		t.Fatal("double attach must fail")
	}

	// Sustained load on the hot pool.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var fan func(c *wsrt.Ctx, n int)
				fan = func(c *wsrt.Ctx, n int) {
					if n <= 1 {
						c.Compute(100_000)
						return
					}
					c.Spawn(func(cc *wsrt.Ctx) { fan(cc, n/2) })
					fan(c, n-n/2)
					c.Sync()
				}
				hot.Submit(context.Background(), func(c *wsrt.Ctx) { fan(c, 64) }) //nolint:errcheck
			}
		}()
	}
	// Let estimators settle, re-arbitrating as a machine loop would.
	deadline := time.Now().Add(5 * time.Second)
	var hotShare, coldShare int
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		ten.Rearbitrate()
		snap := ten.Snapshot()
		shares := map[string]int{}
		total := 0
		for _, s := range snap {
			shares[s.Name] = s.Share
			total += s.Share
		}
		if total+ten.FreeCores() != machine.Usable() {
			t.Fatalf("share accounting broken: %d granted + %d free != %d",
				total, ten.FreeCores(), machine.Usable())
		}
		hotShare, coldShare = shares["hot"], shares["cold"]
		if hotShare > coldShare {
			break
		}
	}
	close(stop)
	wg.Wait()
	if hotShare <= coldShare {
		t.Fatalf("re-arbitration did not favour the loaded pool: hot %d, cold %d", hotShare, coldShare)
	}

	// Draining a tenant releases its cores on the next round.
	drain(t, hot)
	freeBefore := ten.FreeCores()
	ten.Rearbitrate()
	if got := ten.FreeCores(); got <= freeBefore {
		t.Fatalf("drained tenant's cores not released: %d -> %d", freeBefore, got)
	}
	if snap := ten.Snapshot(); len(snap) != 1 || snap[0].Name != "cold" {
		t.Fatalf("snapshot after release = %+v", snap)
	}
	drain(t, cold)
	ten.Rearbitrate()
	if got := ten.FreeCores(); got != machine.Usable() {
		t.Fatalf("all cores must be free after both tenants drained: %d != %d",
			got, machine.Usable())
	}
	ten.Close()
}

// TestTenancyBidsLastDesire: a tenant bids the filtered desire of its
// latest quantum, not a peak held over the arbitration epoch, so a pool
// whose desire fell gives the cores back on the next round.
func TestTenancyBidsLastDesire(t *testing.T) {
	p := quietPool(t, Config{Name: "t", Runtime: wsrt.Config{Mesh: topo.MustMesh(4, 4)}})
	machine := topo.MustMesh(8, 4)
	ten := NewTenancy(machine, time.Hour)
	if err := ten.Attach(p, machine.ID(topo.Coord{X: 3, Y: 2})); err != nil {
		t.Fatal(err)
	}
	const high, low = 12, 3
	p.noteQuantum(metrics.Decision{Raw: high, Desired: high, Granted: high})
	p.noteQuantum(metrics.Decision{Raw: low, Desired: low, Granted: low})
	ten.Rearbitrate()
	if share := ten.Snapshot()[0].Share; share < low || share >= high {
		t.Fatalf("share after desires %d then %d = %d, want the last desire covered and below %d",
			high, low, share, high)
	}
	drain(t, p)
	ten.Close()
}

func TestTenancyImposesCaps(t *testing.T) {
	// An idle tenant's runtime capacity must shrink to (the zone floor
	// of) its arbitrated share.
	p, err := New(Config{
		Name: "idle",
		Runtime: wsrt.Config{
			Mesh:    topo.MustMesh(4, 4),
			Source:  5,
			Quantum: 500 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	uncapped := p.Capacity()
	machine := topo.MustMesh(8, 4)
	ten := NewTenancy(machine, time.Hour)
	if err := ten.Attach(p, machine.ID(topo.Coord{X: 1, Y: 1})); err != nil {
		t.Fatal(err)
	}
	// Idle: desire decays to 1, the share follows, the cap follows it.
	var capped int
	for i := 0; i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
		ten.Rearbitrate()
		if capped = p.Capacity(); capped < uncapped {
			break
		}
	}
	if capped >= uncapped {
		t.Fatalf("capacity did not shrink under arbitration: %d (uncapped %d)", capped, uncapped)
	}
	drain(t, p)
	ten.Close()
}

func TestTenancyStartStop(t *testing.T) {
	// The background loop form: attach, let it run, close. Exercises the
	// ticker path rather than manual Rearbitrate.
	p, err := New(Config{Name: "x", Runtime: wsrt.Config{
		Mesh: topo.MustMesh(4, 2), Quantum: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	machine := topo.MustMesh(4, 4)
	ten := NewTenancy(machine, time.Millisecond)
	if err := ten.Attach(p, 5); err != nil {
		t.Fatal(err)
	}
	ten.Start()
	var done atomic.Bool
	if err := p.Submit(context.Background(), func(c *wsrt.Ctx) { done.Store(true) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	drain(t, p)
	ten.Close()
	if !done.Load() {
		t.Fatal("job did not run under tenancy")
	}
}
