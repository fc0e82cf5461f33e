package topo

import (
	"fmt"
	"sort"
)

// Allotment is the set of workers granted to one workload: a source core s
// plus further members, each at some hop count from s. The diaspora d is the
// maximum such distance. A zone Z_k is the subset of members at distance
// exactly k; the allotment changes size one whole zone at a time (§4.1 of
// the paper: "a zone is the unit at which the size of an allotment changes").
//
// An allotment is classified when it is built (see Classify), and it
// records the two sizes the estimator moves between: one zone out and one
// zone in. Nothing changes after construction, which makes an allotment
// safe to share between the runtime scheduler and the estimation helper.
type Allotment struct {
	mesh     *Mesh
	source   CoreID
	diaspora int
	members  []CoreID // sorted by (zone, id); includes source
	isMember []bool   // indexed by CoreID
	class    *Classification
	// grownSize and shrunkSize are the sizes with the complete next zone
	// Z_{d+1} added and with the outermost zone Z_d removed.
	grownSize, shrunkSize int
}

// NewAllotment builds the complete allotment of all usable cores within
// hop count d of source (source itself included). d must be >= 1: the
// minimal allotment in the paper is "zone 1 plus the source".
func NewAllotment(m *Mesh, source CoreID, d int) (*Allotment, error) {
	if err := checkSource(m, source); err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("topo: diaspora %d < 1", d)
	}
	var members []CoreID
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if m.Reserved(id) {
			continue
		}
		if m.HopCount(source, id) <= d {
			members = append(members, id)
		}
	}
	return newAllotmentFromMembers(m, source, members)
}

// NewAllotmentFromCores builds a (possibly incomplete) allotment from an
// explicit member set. Multiprogrammed deployments (paper Fig. 2) produce
// exactly such allotments: each application holds whichever cores the system
// scheduler could spare, so classes are usually incomplete. The source is
// added if absent; reserved or invalid cores are rejected.
func NewAllotmentFromCores(m *Mesh, source CoreID, cores []CoreID) (*Allotment, error) {
	if err := checkSource(m, source); err != nil {
		return nil, err
	}
	seen := make(map[CoreID]bool, len(cores)+1)
	members := []CoreID{source}
	seen[source] = true
	for _, id := range cores {
		if !m.Valid(id) {
			return nil, fmt.Errorf("topo: invalid member core %d", id)
		}
		if m.Reserved(id) {
			return nil, fmt.Errorf("topo: member core %d is reserved", id)
		}
		if !seen[id] {
			seen[id] = true
			members = append(members, id)
		}
	}
	return newAllotmentFromMembers(m, source, members)
}

// checkSource refuses a source core that is off the mesh or reserved.
func checkSource(m *Mesh, source CoreID) error {
	if !m.Valid(source) {
		return fmt.Errorf("topo: invalid source core %d", source)
	}
	if m.Reserved(source) {
		return fmt.Errorf("topo: source core %d is reserved", source)
	}
	return nil
}

func newAllotmentFromMembers(m *Mesh, source CoreID, members []CoreID) (*Allotment, error) {
	a := &Allotment{
		mesh:     m,
		source:   source,
		members:  append([]CoreID(nil), members...),
		isMember: make([]bool, m.NumCores()),
	}
	for _, id := range a.members {
		a.isMember[id] = true
		if hc := m.HopCount(source, id); hc > a.diaspora {
			a.diaspora = hc
		}
	}
	sort.Slice(a.members, func(i, j int) bool {
		zi, zj := m.HopCount(source, a.members[i]), m.HopCount(source, a.members[j])
		if zi != zj {
			return zi < zj
		}
		return a.members[i] < a.members[j]
	})
	a.settle()
	return a, nil
}

// settle completes a new allotment: it records the sizes one zone out and
// one zone in, and classifies it.
func (a *Allotment) settle() {
	m := a.mesh
	out, in := 0, 0
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		switch hc := m.HopCount(a.source, id); {
		case hc == a.diaspora+1 && !m.Reserved(id):
			out++
		case hc < a.diaspora && a.isMember[id]:
			in++
		}
	}
	a.grownSize, a.shrunkSize = a.Size()+out, a.Size()
	if a.diaspora > 1 {
		a.shrunkSize = in
	}
	a.class = classify(a)
}

// Mesh returns the topology the allotment lives on.
func (a *Allotment) Mesh() *Mesh { return a.mesh }

// Source returns the source worker s.
func (a *Allotment) Source() CoreID { return a.source }

// Diaspora returns d, the maximum hop count of any member from the source.
func (a *Allotment) Diaspora() int { return a.diaspora }

// Size returns the number of workers, including the source.
func (a *Allotment) Size() int { return len(a.members) }

// GrownSize returns the size with the complete next zone Z_{d+1} added:
// Size() plus the usable cores at distance d+1, or Size() when there are
// none.
func (a *Allotment) GrownSize() int { return a.grownSize }

// ShrunkSize returns the size with the outermost zone Z_d removed: the
// members below distance d, or Size() at the minimum (d <= 1), which
// never shrinks.
func (a *Allotment) ShrunkSize() int { return a.shrunkSize }

// Members returns all member cores sorted by (zone, id). The slice is shared;
// callers must not modify it.
func (a *Allotment) Members() []CoreID { return a.members }

// Contains reports whether core id belongs to the allotment.
func (a *Allotment) Contains(id CoreID) bool {
	return a.mesh.Valid(id) && a.isMember[id]
}

// ZoneOf returns the zone index (hop count from the source) of member id.
// It panics if id is not a member.
func (a *Allotment) ZoneOf(id CoreID) int {
	if !a.Contains(id) {
		panic(fmt.Sprintf("topo: core %d is not in the allotment", id))
	}
	return a.mesh.HopCount(a.source, id)
}

// Zone returns the members at distance exactly k from the source, sorted by
// id. Zone(0) is the singleton {source}.
func (a *Allotment) Zone(k int) []CoreID {
	var out []CoreID
	for _, id := range a.members {
		if a.mesh.HopCount(a.source, id) == k {
			out = append(out, id)
		}
	}
	return out
}

// Zones returns the complete allotments of source for diaspora 1..maxD:
// Zones[d-1] holds every usable core within hop count d of source, member
// for member what NewAllotment(m, source, d) builds. These are the only
// allotments the system scheduler grants (§4.1), and their sizes are the
// paper's fixed sizes (5, 12, 20, 27 on the 8x4/32-core platform and 5,
// 13, 24, 35, 42, 45 on the 8x6/48-core one). maxD <= 0, or beyond the
// mesh's MaxDiaspora, means the mesh maximum, which is at least 1: a
// single-core mesh yields the source alone.
//
// The table is built in one pass over the rings: the entries share one
// member array (each is a prefix of the next), and a diaspora whose ring
// holds no usable core repeats the previous entry.
func Zones(m *Mesh, source CoreID, maxD int) ([]*Allotment, error) {
	if err := checkSource(m, source); err != nil {
		return nil, err
	}
	if top := max(m.MaxDiaspora(source), 1); maxD <= 0 || maxD > top {
		maxD = top
	}
	members := make([]CoreID, 1, m.Usable())
	members[0] = source
	isMember := make([]bool, m.NumCores())
	isMember[source] = true
	zones := make([]*Allotment, 0, maxD)
	var a *Allotment
	for d := 1; d <= maxD; d++ {
		n := len(members)
		for _, id := range m.Ring(source, d) {
			if !m.Reserved(id) {
				members = append(members, id)
				isMember[id] = true
			}
		}
		if a == nil || len(members) > n {
			a = &Allotment{
				mesh:     m,
				source:   source,
				members:  members[:len(members):len(members)],
				isMember: append([]bool(nil), isMember...),
			}
			if len(members) > n {
				a.diaspora = d
			}
			a.settle()
		}
		zones = append(zones, a)
	}
	return zones, nil
}

// String describes the allotment, e.g. "allotment src=20 d=4 size=27".
func (a *Allotment) String() string {
	return fmt.Sprintf("allotment src=%d d=%d size=%d", a.source, a.diaspora, a.Size())
}
