package topo

import (
	"fmt"
	"slices"
)

// Class is a worker's DVS classification within an allotment.
//
// The paper's formal definitions (§4.1) are used verbatim:
//
//	Z = { w in I : hc(w, s) = d }                      (outermost zone)
//	X = { w in I : exactly one allotted worker sits
//	               one hop closer to the source }       (axis conduits)
//	F = I \ (X ∪ Z ∪ {s})                               (the rest)
//
// X and Z are not disjoint: an on-axis worker in the outermost zone
// satisfies both definitions and is reported as ClassXZ. This matches the
// paper's 5-worker example ("all workers are part of X and their respective
// value of L is zero") where every zone-1 worker is simultaneously at
// maximum distance. The prose description of X ("excluding those at maximum
// distance") refers only to the illustration; the Diaspora Malleability
// Conditions quantify over the formal sets, so an XZ worker participates in
// both the increase condition (as X) and the decrease condition (as Z).
type Class uint8

const (
	// ClassNone marks cores outside the allotment.
	ClassNone Class = iota
	// ClassSource is the source worker s.
	ClassSource
	// ClassX members span outward from the source, each with exactly one
	// allotted inner-zone neighbour; they disseminate load away from s.
	ClassX
	// ClassZ members form the outermost zone, at maximum distance d.
	ClassZ
	// ClassXZ members satisfy both the X and the Z definition.
	ClassXZ
	// ClassF is everything else: the bulk that pulls load back inward.
	ClassF
)

// String returns the short label used in figures: s, X, Z, XZ, F.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "."
	case ClassSource:
		return "s"
	case ClassX:
		return "X"
	case ClassZ:
		return "Z"
	case ClassXZ:
		return "XZ"
	case ClassF:
		return "F"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsX reports whether the class satisfies the X definition.
func (c Class) IsX() bool { return c == ClassX || c == ClassXZ }

// IsZ reports whether the class satisfies the Z definition.
func (c Class) IsZ() bool { return c == ClassZ || c == ClassXZ }

// Classification holds the per-core classes of one allotment plus the
// derived neighbour sets DVS and the DMC need. It is built once, with its
// allotment, and never changes.
type Classification struct {
	a       *Allotment
	classOf []Class // indexed by CoreID
	x, z, f []CoreID
	outer   [][]CoreID // indexed by CoreID: O_w of each member
}

// Classify returns the X/Z/F classification of allotment a. It does no
// work: the classification is built with the allotment, so every call
// returns the same value.
func Classify(a *Allotment) *Classification { return a.class }

// classify computes the classification of a new allotment. One scan of
// each member's distance-1 neighbours counts the inner ones (the X
// definition) and records the outer ones (O_w).
func classify(a *Allotment) *Classification {
	m := a.mesh
	c := &Classification{
		a:       a,
		classOf: make([]Class, m.NumCores()),
		outer:   make([][]CoreID, m.NumCores()),
	}
	var outer []CoreID // backs every O_w
	for _, w := range a.members {
		zw := m.HopCount(a.source, w)
		inner, o := 0, len(outer)
		nb, k := m.Neighbors(w)
		for _, n := range nb[:k] {
			if !a.isMember[n] {
				continue
			}
			switch m.HopCount(a.source, n) {
			case zw - 1:
				inner++
			case zw + 1:
				outer = append(outer, n)
			}
		}
		// Clipped, so a caller appending to O_w copies it instead of
		// writing into the next member's list.
		c.outer[w] = outer[o:len(outer):len(outer)]
		if w == a.source {
			c.classOf[w] = ClassSource
			continue
		}
		isX, isZ := inner == 1, zw == a.diaspora
		switch {
		case isX && isZ:
			c.classOf[w] = ClassXZ
		case isX:
			c.classOf[w] = ClassX
		case isZ:
			c.classOf[w] = ClassZ
		default:
			c.classOf[w] = ClassF
			c.f = append(c.f, w)
		}
		if isX {
			c.x = append(c.x, w)
		}
		if isZ {
			c.z = append(c.z, w)
		}
	}
	c.x, c.z, c.f = slices.Clip(c.x), slices.Clip(c.z), slices.Clip(c.f)
	return c
}

// Allotment returns the allotment this classification describes.
func (c *Classification) Allotment() *Allotment { return c.a }

// Class returns the class of core id (ClassNone for non-members).
func (c *Classification) Class(id CoreID) Class {
	if !c.a.Mesh().Valid(id) {
		return ClassNone
	}
	return c.classOf[id]
}

// X returns all workers satisfying the X definition (including XZ members),
// sorted by (zone, id). The DMC increase condition quantifies over this set.
func (c *Classification) X() []CoreID { return c.x }

// Z returns all workers in the outermost zone (including XZ members). The
// DMC decrease condition quantifies over this set.
func (c *Classification) Z() []CoreID { return c.z }

// F returns the remaining workers (excluding the source).
func (c *Classification) F() []CoreID { return c.f }

// InnerNeighbors returns the allotted distance-1 neighbours of member w one
// zone closer to the source (the candidates a class-X worker pulls from).
func (c *Classification) InnerNeighbors(w CoreID) []CoreID {
	m := c.a.Mesh()
	zw := c.a.ZoneOf(w)
	var out []CoreID
	nb, k := m.Neighbors(w)
	for _, n := range nb[:k] {
		if c.a.Contains(n) && c.a.ZoneOf(n) == zw-1 {
			out = append(out, n)
		}
	}
	return out
}

// OuterVictims returns O_w: the allotted distance-1 neighbours of member w
// located in its outer zone, in Neighbors order. Per Definition 1, these
// are simultaneously w's victims and workers that steal from w. µ(O_w) is
// the theoretical bound for the threshold L in the DMC increase condition.
// The slice is the stored one, shared and clipped to its length: callers
// must not modify it, and appending to it copies. It is empty for a
// non-member.
func (c *Classification) OuterVictims(w CoreID) []CoreID { return c.outer[w] }

// RingNeighbors returns the allotted diagonal neighbours of member w in the
// same zone — the "diagonally left and right" candidates Z members steal
// from first. A diagonal neighbour differs by exactly one hop along each of
// two distinct axes (total distance 2): these are the positions adjacent to
// w along the diamond ring of its zone. Straight-line distance-2 neighbours
// (e.g. two hops along one axis) are in the same zone but are not
// ring-adjacent and are excluded.
func (c *Classification) RingNeighbors(w CoreID) []CoreID {
	m := c.a.Mesh()
	zw := c.a.ZoneOf(w)
	wc := m.Coord(w)
	var out []CoreID
	for _, id := range m.Ring(w, 2) {
		if !c.a.Contains(id) || c.a.ZoneOf(id) != zw {
			continue
		}
		ic := m.Coord(id)
		dx, dy, dz := abs(ic.X-wc.X), abs(ic.Y-wc.Y), abs(ic.Z-wc.Z)
		if dx <= 1 && dy <= 1 && dz <= 1 {
			out = append(out, id)
		}
	}
	return out
}

// Complete reports whether every class is complete: each geometric position
// belonging to a class within diaspora d is actually allotted. In a
// multiprogrammed system this is rare (paper Fig. 2); DVS and the DMC are
// designed to tolerate incompleteness.
func (c *Classification) Complete() bool {
	m := c.a.Mesh()
	d := c.a.Diaspora()
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if m.Reserved(id) || c.a.Contains(id) {
			continue
		}
		if m.HopCount(c.a.Source(), id) <= d {
			return false
		}
	}
	return true
}
