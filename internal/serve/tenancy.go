package serve

import (
	"fmt"
	"sync"
	"time"

	"palirria/internal/sysched"
	"palirria/internal/topo"
)

// Tenancy is the machine-level layer of the two-level architecture for
// several resident pools: an arbitration mesh models the machine's cores,
// each pool registers as one application with a sysched.Arbiter, and a
// re-arbitration loop periodically redistributes disjoint worker shares
// according to each pool's live desire. A pool's share is imposed on its
// runtime as a dynamic worker cap, so its next grants grow or shrink into
// the share zone-granularly. Drained pools are detected by the loop and
// their cores are released back to the free pool.
//
// The arbitration mesh is an accounting model: each pool still runs its
// workers on its own virtual mesh (goroutines timeshare the machine), but
// the shares are disjoint and sum to at most the arbitration mesh's
// usable cores — resource conservation across tenants, exactly the
// paper's Fig. 2 deployment.
type Tenancy struct {
	mesh     *topo.Mesh
	ab       *sysched.Arbiter
	interval time.Duration

	mu      sync.Mutex
	tenants []*tenant

	startOnce sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

type tenant struct {
	pool *Pool
	app  *sysched.App
}

// NewTenancy builds a tenancy over the arbitration mesh. interval is the
// re-arbitration period (default 20ms) — it should be a few estimation
// quanta, so desires have settled between redistributions.
func NewTenancy(mesh *topo.Mesh, interval time.Duration) *Tenancy {
	if interval <= 0 {
		interval = 20 * time.Millisecond
	}
	return &Tenancy{
		mesh:     mesh,
		ab:       sysched.NewArbiter(mesh),
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Attach registers pool as a tenant with the given source core on the
// arbitration mesh and immediately imposes its seed share as the pool's
// worker cap.
func (t *Tenancy) Attach(pool *Pool, source topo.CoreID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tn := range t.tenants {
		if tn.pool == pool {
			return fmt.Errorf("serve: pool %q already attached", pool.Name())
		}
	}
	app, err := t.ab.Register(pool.Name(), source)
	if err != nil {
		return err
	}
	t.tenants = append(t.tenants, &tenant{pool: pool, app: app})
	pool.SetMaxWorkers(app.Allotment().Size())
	return nil
}

// Start launches the re-arbitration loop (idempotent).
func (t *Tenancy) Start() {
	t.startOnce.Do(func() {
		go func() {
			defer close(t.done)
			ticker := time.NewTicker(t.interval)
			defer ticker.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-ticker.C:
					t.Rearbitrate()
				}
			}
		}()
	})
}

// Rearbitrate performs one redistribution round: drained tenants release
// their cores; live tenants bid their current desire and receive a
// disjoint share, imposed as their runtime's worker cap. Exported so
// tests (and callers preferring manual pacing) can drive the loop
// deterministically.
func (t *Tenancy) Rearbitrate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	live := t.tenants[:0]
	for _, tn := range t.tenants {
		if tn.pool.Drained() {
			t.ab.Release(tn.app)
			continue
		}
		live = append(live, tn)
	}
	t.tenants = live
	// Each tenant bids the filtered desire of its latest quantum, sampled
	// exactly once per round: the controller's false-positive filter is
	// the one smoothing stage between desire and grant. Shrinkers go
	// first, so the cores they return are grantable to growers in the
	// same round.
	bids := make(map[*tenant]int, len(t.tenants))
	for _, tn := range t.tenants {
		bids[tn] = tn.pool.LiveDesire()
	}
	for _, tn := range t.tenants {
		if bids[tn] <= tn.app.Allotment().Size() {
			t.ab.Request(tn.app, bids[tn])
		}
	}
	for _, tn := range t.tenants {
		if bids[tn] > tn.app.Allotment().Size() {
			t.ab.Request(tn.app, bids[tn])
		}
	}
	for _, tn := range t.tenants {
		tn.pool.SetMaxWorkers(tn.app.Allotment().Size())
	}
}

// TenantStatus is one tenant's arbitration state.
type TenantStatus struct {
	Name string `json:"name"`
	// Share is the worker count currently granted by the arbiter.
	Share int `json:"share"`
	// Desire is the pool's current bid.
	Desire int `json:"desire"`
	// ShedLevel is the pool's shed ladder position (0 admits everything;
	// level L sheds every priority class below L), so a tenancy listing
	// shows which tenants are squeezed into shedding by their share.
	ShedLevel int32 `json:"shed_level,omitempty"`
}

// Snapshot lists the live tenants' shares, desires, and shed levels.
func (t *Tenancy) Snapshot() []TenantStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TenantStatus, 0, len(t.tenants))
	for _, tn := range t.tenants {
		out = append(out, TenantStatus{
			Name:      tn.pool.Name(),
			Share:     tn.app.Allotment().Size(),
			Desire:    tn.pool.LiveDesire(),
			ShedLevel: tn.pool.shedLevel.Load(),
		})
	}
	return out
}

// FreeCores returns the unallocated cores of the arbitration mesh.
func (t *Tenancy) FreeCores() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ab.FreeCores()
}

// Close stops the re-arbitration loop. It does not drain the pools.
func (t *Tenancy) Close() {
	t.closeOnce.Do(func() { close(t.stop) })
	t.Start() // ensure the loop goroutine exists before waiting on it
	<-t.done
}
