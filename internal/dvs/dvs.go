// Package dvs implements victim selection policies for work stealing.
//
// The package provides the paper's Deterministic Victim Selection (DVS)
// policy plus the random and round-robin policies that traditional
// work-stealing schedulers (and the ASTEAL/WOOL configurations in the
// evaluation) use.
//
// DVS removes all randomness: each worker has a fixed, ordered list of
// victims derived from its class in the allotment. Steals are restricted to
// close neighbours (communication distance at most 2) and the per-class
// orderings create the tidal flow the paper describes — outward from the
// source along the axes, balancing around the rim, and back inward through
// the bulk:
//
//   - the source steals back only from its immediate neighbours;
//   - class X workers pull primarily from their unique inner neighbour,
//     propagating tasks outward hop by hop along the axes;
//   - class Z workers pull first from their diagonal ring neighbours
//     (balancing load across quadrants) and only then from the inner zone;
//   - class F workers pull primarily from their outer neighbours (the
//     direction of class Z), relocating load back inward.
//
// Victim lists additionally contain the remaining distance-<=2 allotted
// neighbours at lower priority, making the policy tolerant of incomplete
// classes and parallelism fluctuations, exactly as §2.2 of the paper
// requires. A worker whose entire neighbourhood is unallotted (possible in
// scattered multiprogrammed allotments) falls back to the nearest allotted
// workers so that no worker is ever isolated.
package dvs

import (
	"slices"
	"sort"

	"palirria/internal/topo"
	"palirria/internal/xrand"
)

// Policy produces, for each worker, the ordered list of victims the worker
// probes when it runs out of work. Implementations must be safe for
// concurrent use by distinct workers (the real runtime calls Victims from
// every worker thread).
type Policy interface {
	// Name identifies the policy in reports ("dvs", "random", ...).
	Name() string
	// Victims returns the ordered victim candidates for worker w. The
	// returned slice must not be modified by the caller and is only valid
	// until the next Victims call for the same worker.
	Victims(w topo.CoreID) []topo.CoreID
	// VictimsInto writes the ordered victim candidates for worker w into
	// buf (typically buf[:0] of a caller-owned slice) and returns the
	// result. The returned slice always aliases buf's backing array (grown
	// if needed), never policy-internal storage, so steal probes that
	// reuse a per-worker buffer do zero heap allocations at steady state.
	VictimsInto(w topo.CoreID, buf []topo.CoreID) []topo.CoreID
}

// fallbackVictims is the maximum number of nearest-member fallback victims
// appended when a worker's rule-derived list is empty.
const fallbackVictims = 4

// DVS is the Deterministic Victim Selection policy. It is immutable once
// built: when the allotment changes, build a new DVS from the new
// classification.
type DVS struct {
	victims map[topo.CoreID][]topo.CoreID
}

var _ Policy = (*DVS)(nil)

// New builds the DVS policy for the classification c.
func New(c *topo.Classification) *DVS {
	d := &DVS{victims: make(map[topo.CoreID][]topo.CoreID, c.Allotment().Size())}
	a := c.Allotment()
	for _, w := range a.Members() {
		d.victims[w] = buildVictims(c, w)
	}
	d.ensureFlowConnected(a)
	return d
}

// ensureFlowConnected guarantees the §4.1.1 task-discovery property on
// arbitrarily scattered allotments: tasks originate at the source, so
// every worker must be reachable in the steal graph (victim → thief
// edges). The neighbourhood rules connect compact allotments on their
// own; when contention splits an allotment into distant clusters, each
// stranded cluster gets one additional lowest-priority victim — the
// nearest already-connected member — bridging it into the flow.
//
// Degenerate allotments whose flow roots reach no member at all (a source
// outside the member set, or a future constructor that strands it) used
// to be given up on silently, leaving every worker permanently isolated;
// now the lowest-id member is promoted to a flow root and bridging
// continues from it, so the steal graph always ends up connected.
func (d *DVS) ensureFlowConnected(a *topo.Allotment) {
	roots := []topo.CoreID{a.Source()}
	for {
		reached := stealDistances(a, d.Victims, roots)
		members := 0
		for _, w := range a.Members() {
			if _, ok := reached[w]; ok {
				members++
			}
		}
		if members == a.Size() {
			return
		}
		if members == 0 {
			// No member is reachable from any flow root: anchor the flow
			// at the lowest-id member instead of stranding everyone.
			low := topo.NoCore
			for _, w := range a.Members() {
				if low == topo.NoCore || w < low {
					low = w
				}
			}
			if low == topo.NoCore {
				return // empty allotment
			}
			roots = append(roots, low)
			continue
		}
		d.bridgeOne(a, reached)
	}
}

// bridgeOne adds one bridging edge: the (unreached worker, reached
// member) pair with minimal hop distance (ties break on lower ids for
// determinism) gets a victim edge from the worker to the member,
// connecting the worker — and everything downstream of it — into the
// flow. The caller guarantees at least one reached and one unreached
// member exist; reached holds the reached cores (see stealDistances).
func (d *DVS) bridgeOne(a *topo.Allotment, reached map[topo.CoreID]int) {
	m := a.Mesh()
	bestW, bestR := topo.NoCore, topo.NoCore
	bestDist := 1 << 30
	for _, w := range a.Members() {
		if _, ok := reached[w]; ok {
			continue
		}
		for _, r := range a.Members() {
			if _, ok := reached[r]; !ok {
				continue
			}
			dist := m.HopCount(w, r)
			if dist < bestDist ||
				(dist == bestDist && (w < bestW || (w == bestW && r < bestR))) {
				bestW, bestR, bestDist = w, r, dist
			}
		}
	}
	if bestW == topo.NoCore {
		return
	}
	d.victims[bestW] = append(d.victims[bestW], bestR)
}

// Name implements Policy.
func (d *DVS) Name() string { return "dvs" }

// Victims implements Policy. Workers not in the allotment get an empty list.
func (d *DVS) Victims(w topo.CoreID) []topo.CoreID { return d.victims[w] }

// VictimsInto implements Policy: the precomputed list is copied into buf.
func (d *DVS) VictimsInto(w topo.CoreID, buf []topo.CoreID) []topo.CoreID {
	return append(buf, d.victims[w]...)
}

// buildVictims assembles the ordered victim list for worker w according to
// its class. Each tier is sorted by core id so the order is deterministic.
func buildVictims(c *topo.Classification, w topo.CoreID) []topo.CoreID {
	a := c.Allotment()
	if w == a.Source() {
		// The source's neighbourhood is zone 1; it re-acquires work it has
		// seeded outward. Order: distance-1 members, then diagonal
		// distance-2 members as fallback.
		tier1 := allottedNeighbors(a, w)
		var out []topo.CoreID
		out = appendTier(out, tier1)
		out = appendTier(out, diagonalMembers(a, w))
		return withFallback(a, w, out)
	}
	inner := c.InnerNeighbors(w)
	ring := c.RingNeighbors(w)
	outer := c.OuterVictims(w)

	var out []topo.CoreID
	switch cl := c.Class(w); {
	case cl.IsX():
		// X (and XZ): disseminate outward — pull from the axis parent
		// first, then balance with the ring, then the outer fallback.
		out = appendTier(out, inner)
		out = appendTier(out, ring)
		out = appendTier(out, outer)
	case cl == topo.ClassZ:
		// Z: "steal from within their own class (diagonally left and
		// right); only upon failing that, search the inner parts". Z
		// workers sit in the outermost zone, so their outer tier is empty
		// by construction — TestZClassOuterTierEmpty asserts the
		// invariant instead of appending a known-empty tier here.
		out = appendTier(out, ring)
		out = appendTier(out, inner)
	default: // ClassF
		// F: relocate load back inward — outer first (toward Z), then
		// ring, then inner as last resort.
		out = appendTier(out, outer)
		out = appendTier(out, ring)
		out = appendTier(out, inner)
	}
	return withFallback(a, w, out)
}

// appendTier appends tier members (sorted by id, deduplicated against out).
func appendTier(out, tier []topo.CoreID) []topo.CoreID {
	t := append([]topo.CoreID(nil), tier...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	for _, v := range t {
		if !contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// allottedNeighbors returns the distance-1 allotted neighbours of w.
func allottedNeighbors(a *topo.Allotment, w topo.CoreID) []topo.CoreID {
	var out []topo.CoreID
	nb, k := a.Mesh().Neighbors(w)
	for _, n := range nb[:k] {
		if a.Contains(n) {
			out = append(out, n)
		}
	}
	return out
}

// diagonalMembers returns the allotted diagonal (distance-2, one hop per
// axis) neighbours of w regardless of zone.
func diagonalMembers(a *topo.Allotment, w topo.CoreID) []topo.CoreID {
	m := a.Mesh()
	wc := m.Coord(w)
	var out []topo.CoreID
	for _, id := range m.Ring(w, 2) {
		if !a.Contains(id) {
			continue
		}
		ic := m.Coord(id)
		if absInt(ic.X-wc.X) <= 1 && absInt(ic.Y-wc.Y) <= 1 && absInt(ic.Z-wc.Z) <= 1 {
			out = append(out, id)
		}
	}
	return out
}

// withFallback appends the nearest allotted members when the rule-derived
// list is empty, so no worker is ever isolated in a scattered allotment.
func withFallback(a *topo.Allotment, w topo.CoreID, out []topo.CoreID) []topo.CoreID {
	if len(out) > 0 {
		return out
	}
	m := a.Mesh()
	cand := make([]topo.CoreID, 0, a.Size()-1)
	for _, id := range a.Members() {
		if id != w {
			cand = append(cand, id)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		di, dj := m.HopCount(w, cand[i]), m.HopCount(w, cand[j])
		if di != dj {
			return di < dj
		}
		return cand[i] < cand[j]
	})
	if len(cand) > fallbackVictims {
		cand = cand[:fallbackVictims]
	}
	return append(out, cand...)
}

func contains(s []topo.CoreID, v topo.CoreID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// ForResident builds the policy named name — "random", "roundrobin", or
// anything else for DVS — over the resident set: the granted allotment
// plus the draining extras, which stay victims until they retire. seed
// drives the random policy. With no extras, or extras that cannot join the
// grant, the resident set is the granted allotment itself. It returns the
// policy and the resident allotment.
func ForResident(granted *topo.Allotment, extra []topo.CoreID, name string, seed uint64) (Policy, *topo.Allotment) {
	resident := granted
	if len(extra) > 0 {
		cores := append(slices.Clone(granted.Members()), extra...)
		if a, err := topo.NewAllotmentFromCores(granted.Mesh(), granted.Source(), cores); err == nil {
			resident = a
		}
	}
	switch name {
	case "random":
		return NewRandom(resident, seed), resident
	case "roundrobin":
		return NewRoundRobin(resident), resident
	}
	return New(topo.Classify(resident)), resident
}

// Random is the traditional random victim selection policy: each call
// returns a fresh pseudo-random permutation of all other allotment members.
// Each worker owns an independent deterministic stream, so concurrent use by
// distinct workers is safe and runs are reproducible.
type Random struct {
	members []topo.CoreID
	streams map[topo.CoreID]*workerStream
}

type workerStream struct {
	rng *xrand.Xoshiro256
	buf []topo.CoreID
}

var _ Policy = (*Random)(nil)

// NewRandom builds a random policy over the allotment members with the
// given base seed. Per-worker streams are derived with xrand.Hash64, so the
// same (seed, allotment) pair always produces the same steal sequences.
func NewRandom(a *topo.Allotment, seed uint64) *Random {
	r := &Random{
		members: append([]topo.CoreID(nil), a.Members()...),
		streams: make(map[topo.CoreID]*workerStream, a.Size()),
	}
	for _, w := range a.Members() {
		buf := make([]topo.CoreID, 0, len(r.members)-1)
		for _, v := range r.members {
			if v != w {
				buf = append(buf, v)
			}
		}
		r.streams[w] = &workerStream{
			rng: xrand.NewXoshiro256(xrand.Hash64(seed ^ uint64(w)*0x9e3779b97f4a7c15)),
			buf: buf,
		}
	}
	return r
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Victims implements Policy: a fresh shuffle of all other members.
func (r *Random) Victims(w topo.CoreID) []topo.CoreID {
	st := r.streams[w]
	if st == nil {
		return nil
	}
	shuffleCores(st.rng, st.buf)
	return st.buf
}

// VictimsInto implements Policy: a fresh shuffle written into buf. The
// worker's deterministic stream still advances exactly once per call, so
// Victims and VictimsInto are interchangeable mid-run.
func (r *Random) VictimsInto(w topo.CoreID, buf []topo.CoreID) []topo.CoreID {
	st := r.streams[w]
	if st == nil {
		return buf
	}
	for _, v := range r.members {
		if v != w {
			buf = append(buf, v)
		}
	}
	shuffleCores(st.rng, buf[len(buf)-len(st.buf):])
	return buf
}

func shuffleCores(rng *xrand.Xoshiro256, p []topo.CoreID) {
	for i := len(p) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// RoundRobin probes victims in a fixed cyclic order starting after the
// worker's own position. It is the "semi-random" leapfrog-style policy some
// WOOL builds use; included as an additional baseline for the victim
// selection ablation.
type RoundRobin struct {
	members []topo.CoreID
	lists   map[topo.CoreID][]topo.CoreID
}

var _ Policy = (*RoundRobin)(nil)

// NewRoundRobin builds a round-robin policy over the allotment members.
func NewRoundRobin(a *topo.Allotment) *RoundRobin {
	rr := &RoundRobin{
		members: append([]topo.CoreID(nil), a.Members()...),
		lists:   make(map[topo.CoreID][]topo.CoreID, a.Size()),
	}
	sort.Slice(rr.members, func(i, j int) bool { return rr.members[i] < rr.members[j] })
	for i, w := range rr.members {
		list := make([]topo.CoreID, 0, len(rr.members)-1)
		for k := 1; k < len(rr.members); k++ {
			list = append(list, rr.members[(i+k)%len(rr.members)])
		}
		rr.lists[w] = list
	}
	return rr
}

// Name implements Policy.
func (rr *RoundRobin) Name() string { return "roundrobin" }

// Victims implements Policy.
func (rr *RoundRobin) Victims(w topo.CoreID) []topo.CoreID { return rr.lists[w] }

// VictimsInto implements Policy: the fixed cyclic list is copied into buf.
func (rr *RoundRobin) VictimsInto(w topo.CoreID, buf []topo.CoreID) []topo.CoreID {
	return append(buf, rr.lists[w]...)
}
