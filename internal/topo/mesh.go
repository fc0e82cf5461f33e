// Package topo models processor topologies for Deterministic Victim
// Selection (DVS) and Palirria's resource estimation.
//
// The paper develops DVS over a generic model in which cores are placed on a
// mesh of up to three dimensions; the communication distance between two
// workers is the hop count of the shortest path. Connections do not wrap
// around edges. The packages in this repository use topo for:
//
//   - mapping worker threads to cores,
//   - computing zones (sets of workers at equal distance from the source),
//   - classifying allotment members into the classes X, Z and F on which the
//     Diaspora Malleability Conditions are evaluated, and
//   - enumerating the ordered neighbourhoods DVS builds victim sets from.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// CoreID identifies a core by its linear index into the mesh, using
// row-major order: id = (z*DimY + y)*DimX + x.
type CoreID int

// NoCore is the sentinel for "no core".
const NoCore CoreID = -1

// Coord is a position on the mesh. Unused dimensions are zero.
type Coord struct {
	X, Y, Z int
}

// Mesh is a 1-, 2- or 3-dimensional grid of cores with unit communication
// distance between adjacent cores and no wrap-around links. A subset of the
// cores may be reserved: reserved cores host the system scheduler and helper
// threads (cores 0 and 1 in the paper) and are never allotted to a workload.
type Mesh struct {
	dimX, dimY, dimZ int
	reserved         []bool
	// coords[id] is core id's position, computed once by NewMesh so that
	// Coord — under every hop count and NUMA penalty — is a load, not
	// three divisions. It is never written again, so clones share it.
	coords []Coord
}

// NewMesh returns a mesh with the given extents. One, two or three extents
// may be given; each must be positive.
func NewMesh(dims ...int) (*Mesh, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("topo: mesh needs 1-3 dimensions, got %d", len(dims))
	}
	d := [3]int{1, 1, 1}
	for i, v := range dims {
		if v <= 0 {
			return nil, fmt.Errorf("topo: dimension %d is %d, must be positive", i, v)
		}
		d[i] = v
	}
	m := &Mesh{dimX: d[0], dimY: d[1], dimZ: d[2]}
	m.reserved = make([]bool, m.NumCores())
	m.coords = make([]Coord, 0, m.NumCores())
	for z := 0; z < m.dimZ; z++ {
		for y := 0; y < m.dimY; y++ {
			for x := 0; x < m.dimX; x++ {
				m.coords = append(m.coords, Coord{X: x, Y: y, Z: z})
			}
		}
	}
	return m, nil
}

// MustMesh is NewMesh that panics on error; intended for tests and fixed
// experiment configurations.
func MustMesh(dims ...int) *Mesh {
	m, err := NewMesh(dims...)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseMesh turns "8x4" or "4x4x4" (case-insensitive, surrounding space
// ignored) into the extents NewMesh takes: one to three dimensions, each
// at least 1.
func ParseMesh(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) > 3 {
		return nil, fmt.Errorf("topo: bad mesh %q: want DX, DXxDY or DXxDYxDZ", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("topo: bad mesh %q: dimension %q", s, p)
		}
		dims[i] = v
	}
	return dims, nil
}

// Dims returns the mesh extents (X, Y, Z); trailing singleton dimensions are
// included so the result is always length 3.
func (m *Mesh) Dims() (x, y, z int) { return m.dimX, m.dimY, m.dimZ }

// NumCores returns the total number of cores on the mesh.
func (m *Mesh) NumCores() int { return m.dimX * m.dimY * m.dimZ }

// Valid reports whether id names a core on this mesh.
func (m *Mesh) Valid(id CoreID) bool { return id >= 0 && int(id) < m.NumCores() }

// Coord returns the position of core id. It panics on an invalid id.
func (m *Mesh) Coord(id CoreID) Coord {
	if uint(id) >= uint(len(m.coords)) {
		panic(fmt.Sprintf("topo: invalid core %d", id))
	}
	return m.coords[id]
}

// ID returns the core at position c, or NoCore if c lies outside the mesh.
func (m *Mesh) ID(c Coord) CoreID {
	if !m.InBounds(c) {
		return NoCore
	}
	return CoreID((c.Z*m.dimY+c.Y)*m.dimX + c.X)
}

// InBounds reports whether c lies on the mesh.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.dimX &&
		c.Y >= 0 && c.Y < m.dimY &&
		c.Z >= 0 && c.Z < m.dimZ
}

// HopCount returns the communication distance between two cores: the
// Manhattan distance on the mesh (shortest path over unit links).
func (m *Mesh) HopCount(a, b CoreID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y) + abs(ca.Z-cb.Z)
}

// Neighbors returns the cores at distance exactly 1 from id, in a fixed
// deterministic order (-X, +X, -Y, +Y, -Z, +Z), as the first n entries of
// an array: a value, so a call allocates nothing. Reserved cores are
// included; callers that build allotments filter them.
func (m *Mesh) Neighbors(id CoreID) (nb [6]CoreID, n int) {
	c := m.Coord(id)
	for _, d := range [6]Coord{
		{X: -1}, {X: 1}, {Y: -1}, {Y: 1}, {Z: -1}, {Z: 1},
	} {
		if nid := m.ID(Coord{X: c.X + d.X, Y: c.Y + d.Y, Z: c.Z + d.Z}); nid != NoCore {
			nb[n] = nid
			n++
		}
	}
	return nb, n
}

// WithinDistance returns all cores at hop count <= d from center, sorted by
// (distance, id). Reserved cores are included.
func (m *Mesh) WithinDistance(center CoreID, d int) []CoreID {
	var out []CoreID
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if m.HopCount(center, id) <= d {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := m.HopCount(center, out[i]), m.HopCount(center, out[j])
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	return out
}

// Ring returns all cores at hop count exactly d from center, sorted by id.
func (m *Mesh) Ring(center CoreID, d int) []CoreID {
	var out []CoreID
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if m.HopCount(center, id) == d {
			out = append(out, id)
		}
	}
	return out
}

// Reserve marks cores as reserved for the system layer. Reserved cores are
// never part of an allotment. Reserving an already reserved core is a no-op.
func (m *Mesh) Reserve(ids ...CoreID) {
	for _, id := range ids {
		if !m.Valid(id) {
			panic(fmt.Sprintf("topo: reserving invalid core %d", id))
		}
		m.reserved[id] = true
	}
}

// Reserved reports whether core id is reserved.
func (m *Mesh) Reserved(id CoreID) bool { return m.Valid(id) && m.reserved[int(id)] }

// Usable returns the number of non-reserved cores.
func (m *Mesh) Usable() int {
	n := 0
	for _, r := range m.reserved {
		if !r {
			n++
		}
	}
	return n
}

// MaxDiaspora returns the largest hop count from source to any usable core:
// the diaspora beyond which growing an allotment adds no workers.
func (m *Mesh) MaxDiaspora(source CoreID) int {
	max := 0
	for id := CoreID(0); int(id) < m.NumCores(); id++ {
		if m.reserved[id] || id == source {
			continue
		}
		if hc := m.HopCount(source, id); hc > max {
			max = hc
		}
	}
	return max
}

// Clone returns a copy of the mesh, including reservations; only the
// immutable coordinate table is shared.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{dimX: m.dimX, dimY: m.dimY, dimZ: m.dimZ, coords: m.coords}
	c.reserved = append([]bool(nil), m.reserved...)
	return c
}

// String describes the mesh, e.g. "mesh 8x4 (32 cores, 2 reserved)".
func (m *Mesh) String() string {
	dims := fmt.Sprintf("%d", m.dimX)
	if m.dimY > 1 || m.dimZ > 1 {
		dims += fmt.Sprintf("x%d", m.dimY)
	}
	if m.dimZ > 1 {
		dims += fmt.Sprintf("x%d", m.dimZ)
	}
	return fmt.Sprintf("mesh %s (%d cores, %d reserved)", dims, m.NumCores(), m.NumCores()-m.Usable())
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
