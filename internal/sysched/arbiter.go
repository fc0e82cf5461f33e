package sysched

import (
	"fmt"
	"sort"

	"palirria/internal/topo"
)

// Arbiter co-schedules several applications on one mesh, granting each a
// non-overlapping allotment. This is the multiprogrammed deployment of the
// paper's Fig. 2: resource competition leads to conserved allotments and
// incomplete classes, which DVS and the DMC are designed to tolerate.
//
// The grant policy is greedy locality-first: an application keeps the
// cores it has; growth adds the free cores nearest its source (by hop
// count, then id); shrinkage releases its farthest cores first. The source
// core is never released.
type Arbiter struct {
	mesh  *topo.Mesh
	owner map[topo.CoreID]*App
	apps  []*App
}

// App is one application registered with the arbiter.
type App struct {
	// Name labels the application in listings.
	Name   string
	source topo.CoreID
	ab     *Arbiter
	cur    *topo.Allotment
}

// NewArbiter returns an arbiter over mesh.
func NewArbiter(mesh *topo.Mesh) *Arbiter {
	return &Arbiter{mesh: mesh, owner: map[topo.CoreID]*App{}}
}

// Register admits an application with the given source core and grants it
// the minimal allotment the neighbourhood allows: the source plus its free
// distance-1 neighbours (zone 1), and never a core farther out.
func (ab *Arbiter) Register(name string, source topo.CoreID) (*App, error) {
	if !ab.mesh.Valid(source) {
		return nil, fmt.Errorf("sysched: invalid source %d", source)
	}
	if ab.mesh.Reserved(source) {
		return nil, fmt.Errorf("sysched: source %d is reserved", source)
	}
	if ab.owner[source] != nil {
		return nil, fmt.Errorf("sysched: core %d already owned by %s", source, ab.owner[source].Name)
	}
	app := &App{Name: name, source: source, ab: ab}
	ab.owner[source] = app
	ab.apps = append(ab.apps, app)
	var zone1 []topo.CoreID
	nb, k := ab.mesh.Neighbors(source)
	for _, id := range nb[:k] {
		if !ab.mesh.Reserved(id) && ab.owner[id] == nil {
			zone1 = append(zone1, id)
			ab.owner[id] = app
		}
	}
	a, err := topo.NewAllotmentFromCores(ab.mesh, source, zone1)
	if err != nil {
		return nil, err
	}
	app.cur = a
	return app, nil
}

// Apps returns the registered applications.
func (ab *Arbiter) Apps() []*App { return ab.apps }

// Source returns the application's source core.
func (a *App) Source() topo.CoreID { return a.source }

// Allotment returns the application's current allotment.
func (a *App) Allotment() *topo.Allotment { return a.cur }

// Request resizes the application toward desired workers and returns the
// new allotment. Growth is limited by free cores; shrinkage never goes
// below the source.
func (ab *Arbiter) Request(app *App, desired int) *topo.Allotment {
	if desired < 1 {
		desired = 1
	}
	if desired > app.cur.Size() {
		app.cur = ab.grow(app, desired)
	} else if desired < app.cur.Size() {
		app.cur = ab.shrink(app, desired)
	}
	return app.cur
}

// Release returns all of the application's cores (except nothing — the app
// is removed entirely) to the free pool.
func (ab *Arbiter) Release(app *App) {
	for _, id := range app.cur.Members() {
		delete(ab.owner, id)
	}
	for i, a := range ab.apps {
		if a == app {
			ab.apps = append(ab.apps[:i], ab.apps[i+1:]...)
			break
		}
	}
}

// grow adds the free cores nearest the app's source until the allotment
// reaches desired workers or no free cores remain.
func (ab *Arbiter) grow(app *App, desired int) *topo.Allotment {
	var free []topo.CoreID
	for id := topo.CoreID(0); int(id) < ab.mesh.NumCores(); id++ {
		if ab.mesh.Reserved(id) || ab.owner[id] != nil {
			continue
		}
		free = append(free, id)
	}
	sort.Slice(free, func(i, j int) bool {
		di, dj := ab.mesh.HopCount(app.source, free[i]), ab.mesh.HopCount(app.source, free[j])
		if di != dj {
			return di < dj
		}
		return free[i] < free[j]
	})
	members := append([]topo.CoreID(nil), app.cur.Members()...)
	for _, id := range free {
		if len(members) >= desired {
			break
		}
		members = append(members, id)
		ab.owner[id] = app
	}
	a, err := topo.NewAllotmentFromCores(ab.mesh, app.source, members)
	if err != nil {
		return app.cur
	}
	return a
}

// shrink releases the app's farthest cores down to desired workers.
func (ab *Arbiter) shrink(app *App, desired int) *topo.Allotment {
	members := append([]topo.CoreID(nil), app.cur.Members()...)
	sort.Slice(members, func(i, j int) bool {
		di, dj := ab.mesh.HopCount(app.source, members[i]), ab.mesh.HopCount(app.source, members[j])
		if di != dj {
			return di < dj
		}
		return members[i] < members[j]
	})
	for len(members) > desired && len(members) > 1 {
		last := members[len(members)-1]
		if last == app.source {
			break
		}
		delete(ab.owner, last)
		members = members[:len(members)-1]
	}
	a, err := topo.NewAllotmentFromCores(ab.mesh, app.source, members)
	if err != nil {
		return app.cur
	}
	return a
}

// FreeCores returns the number of unowned, unreserved cores.
func (ab *Arbiter) FreeCores() int {
	n := 0
	for id := topo.CoreID(0); int(id) < ab.mesh.NumCores(); id++ {
		if !ab.mesh.Reserved(id) && ab.owner[id] == nil {
			n++
		}
	}
	return n
}
