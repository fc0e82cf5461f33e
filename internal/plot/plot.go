// Package plot renders the paper's figures as text: horizontal bar charts
// (Figs. 5a/5b/7a/7b), worker-count timelines (Figs. 5c/7c), per-worker
// useful/wasted columns (Figs. 6/8) and mesh classification maps
// (Figs. 1/2/9). Everything prints to an io.Writer so the benchmark
// harness can tee it into EXPERIMENTS.md.
package plot

import (
	"fmt"
	"io"
	"strings"

	"palirria/internal/metrics"
	"palirria/internal/topo"
)

// Bar is one labeled value of a bar chart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled so the largest value spans width
// characters. Values print with the given format verb (e.g. "%.0f").
func BarChart(w io.Writer, title string, bars []Bar, width int, format string) {
	if width <= 0 {
		width = 40
	}
	max := 0.0
	for _, b := range bars {
		if b.Value > max {
			max = b.Value
		}
	}
	labelW := 0
	for _, b := range bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	fmt.Fprintf(w, "%s\n", title)
	for _, b := range bars {
		n := 0
		if max > 0 {
			n = int(b.Value / max * float64(width))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %-*s %s "+format+"\n", labelW, b.Label, strings.Repeat("#", n), b.Value)
	}
}

// Timeline renders one or more worker-count step functions over a shared
// time axis, like the paper's Figs. 5(c)/7(c): the y axis is the worker
// count, the x axis is time, one row per distinct allotment size. Curves
// are labeled with single characters (A = first, P = second by
// convention). Shorter curves denote faster execution and thus better
// estimation accuracy.
func Timeline(w io.Writer, title string, names []string, lines []*metrics.Timeline, levels []int, width int) {
	if width <= 0 {
		width = 64
	}
	var end int64
	for _, tl := range lines {
		pts := tl.Points()
		if len(pts) > 0 && pts[len(pts)-1].Time > end {
			end = pts[len(pts)-1].Time
		}
	}
	if end == 0 {
		end = 1
	}
	fmt.Fprintf(w, "%s  (x: time, %d cycles full scale)\n", title, end)
	marks := []byte{'A', 'P', 'W', 'X', 'Y', 'Z'}
	// Render from the highest worker level down.
	for li := len(levels) - 1; li >= 0; li-- {
		lvl := levels[li]
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for ci, tl := range lines {
			pts := tl.Points()
			for i, p := range pts {
				if p.Workers != lvl {
					continue
				}
				// Segment from p.Time to the next point (or curve end).
				segEnd := end
				if i+1 < len(pts) {
					segEnd = pts[i+1].Time
				}
				x0 := int(p.Time * int64(width-1) / end)
				x1 := int(segEnd * int64(width-1) / end)
				for x := x0; x <= x1 && x < width; x++ {
					if row[x] == ' ' {
						row[x] = marks[ci%len(marks)]
					} else if row[x] != marks[ci%len(marks)] {
						row[x] = '*' // overlap
					}
				}
			}
		}
		fmt.Fprintf(w, "  %3d |%s\n", lvl, string(row))
	}
	fmt.Fprintf(w, "      +%s\n", strings.Repeat("-", width))
	legend := make([]string, 0, len(names))
	for i, n := range names {
		legend = append(legend, fmt.Sprintf("%c=%s", marks[i%len(marks)], n))
	}
	fmt.Fprintf(w, "       %s  (* = overlap)\n", strings.Join(legend, "  "))
}

// WorkerColumn is one worker's useful/total cycles for the per-worker
// charts.
type WorkerColumn struct {
	Useful int64
	Total  int64
}

// WorkerBars renders the paper's Figs. 6/8: one column per worker, ordered
// by zone, normalized to norm (the first bar of the reference column in
// the paper; pass the max total for a safe default). Useful cycles print
// as '#', non-useful as '.', with a fixed chart height.
func WorkerBars(w io.Writer, title string, cols []WorkerColumn, norm int64, height int) {
	if height <= 0 {
		height = 10
	}
	if norm <= 0 {
		norm = 1
		for _, c := range cols {
			if c.Total > norm {
				norm = c.Total
			}
		}
	}
	fmt.Fprintf(w, "%s  (#=useful  .=other, full bar = %d cycles)\n", title, norm)
	for row := height; row >= 1; row-- {
		thresh := norm * int64(row) / int64(height)
		var sb strings.Builder
		sb.WriteString("  |")
		for _, c := range cols {
			switch {
			case c.Useful >= thresh:
				sb.WriteByte('#')
			case c.Total >= thresh:
				sb.WriteByte('.')
			default:
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", len(cols)))
}

// ClassGrid renders an allotment's DVS classification over its mesh, like
// the paper's Figs. 1, 2 and 9: s = source, X/Z/F = classes, XZ members
// print as x, '.' = usable but idle cores, '#' = reserved cores.
func ClassGrid(w io.Writer, title string, c *topo.Classification) {
	m := c.Allotment().Mesh()
	dimX, dimY, dimZ := m.Dims()
	fmt.Fprintf(w, "%s\n", title)
	for z := 0; z < dimZ; z++ {
		if dimZ > 1 {
			fmt.Fprintf(w, " layer z=%d\n", z)
		}
		for y := 0; y < dimY; y++ {
			var sb strings.Builder
			sb.WriteString("  ")
			for x := 0; x < dimX; x++ {
				id := m.ID(topo.Coord{X: x, Y: y, Z: z})
				switch {
				case m.Reserved(id):
					sb.WriteString(" #")
				default:
					switch c.Class(id) {
					case topo.ClassSource:
						sb.WriteString(" s")
					case topo.ClassX:
						sb.WriteString(" X")
					case topo.ClassZ:
						sb.WriteString(" Z")
					case topo.ClassXZ:
						sb.WriteString(" x")
					case topo.ClassF:
						sb.WriteString(" F")
					default:
						sb.WriteString(" .")
					}
				}
			}
			fmt.Fprintln(w, sb.String())
		}
	}
	fmt.Fprintln(w, "  s=source X=class-X Z=class-Z x=X∩Z F=class-F .=idle #=reserved")
}

// MultiClassGrid renders several applications sharing one mesh (Fig. 2):
// each application's members print as its digit, sources as 's' followed
// by the digit... sources print as the uppercase letter of the app.
func MultiClassGrid(w io.Writer, title string, m *topo.Mesh, apps []*topo.Allotment) {
	dimX, dimY, _ := m.Dims()
	fmt.Fprintf(w, "%s\n", title)
	owner := make(map[topo.CoreID]string)
	for i, a := range apps {
		for _, id := range a.Members() {
			label := fmt.Sprintf("%d", i+1)
			if id == a.Source() {
				label = string(rune('A' + i))
			}
			owner[id] = label
		}
	}
	for y := 0; y < dimY; y++ {
		var sb strings.Builder
		sb.WriteString("  ")
		for x := 0; x < dimX; x++ {
			id := m.ID(topo.Coord{X: x, Y: y})
			switch {
			case m.Reserved(id):
				sb.WriteString(" #")
			case owner[id] != "":
				sb.WriteString(" " + owner[id])
			default:
				sb.WriteString(" .")
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintln(w, "  A/B/C=app sources  1/2/3=app workers  .=idle  #=reserved")
}

// FlowGrid renders the paper's Fig. 3: the flow of tasks through the
// workers under DVS. Each cell shows the direction of the worker's
// primary victim — the neighbour it pulls tasks from first — so the tide
// becomes visible: X workers pull from the axis toward the source (arrows
// pointing inward along the axes mean tasks travel outward), Z workers
// pull diagonally around the rim, F workers pull from their outer zone.
func FlowGrid(w io.Writer, title string, c *topo.Classification, victims func(topo.CoreID) []topo.CoreID) {
	m := c.Allotment().Mesh()
	dimX, dimY, _ := m.Dims()
	fmt.Fprintf(w, "%s\n", title)
	for y := 0; y < dimY; y++ {
		var sb strings.Builder
		sb.WriteString("  ")
		for x := 0; x < dimX; x++ {
			id := m.ID(topo.Coord{X: x, Y: y})
			switch {
			case m.Reserved(id):
				sb.WriteString(" #")
			case !c.Allotment().Contains(id):
				sb.WriteString(" .")
			case id == c.Allotment().Source():
				sb.WriteString(" s")
			default:
				sb.WriteString(" " + flowGlyph(m, id, victims(id)))
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintln(w, "  arrows point at each worker's primary victim; s=source #=reserved .=idle")
}

// flowGlyph maps the offset to the primary victim onto an arrow.
func flowGlyph(m *topo.Mesh, w topo.CoreID, vs []topo.CoreID) string {
	if len(vs) == 0 {
		return "?"
	}
	wc, vc := m.Coord(w), m.Coord(vs[0])
	dx, dy := vc.X-wc.X, vc.Y-wc.Y
	switch {
	case dx < 0 && dy == 0:
		return "<"
	case dx > 0 && dy == 0:
		return ">"
	case dx == 0 && dy < 0:
		return "^"
	case dx == 0 && dy > 0:
		return "v"
	case dx < 0 && dy < 0:
		return "`" // up-left diagonal
	case dx > 0 && dy < 0:
		return "/"
	case dx < 0 && dy > 0:
		return ","
	case dx > 0 && dy > 0:
		return "\\"
	}
	return "?"
}
