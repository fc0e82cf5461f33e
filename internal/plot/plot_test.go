package plot

import (
	"bytes"
	"strings"
	"testing"

	"palirria/internal/metrics"
	"palirria/internal/topo"
)

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "title", []Bar{
		{Label: "a", Value: 100},
		{Label: "bb", Value: 50},
		{Label: "c", Value: 0},
	}, 10, "%.0f")
	out := buf.String()
	if !strings.Contains(out, "title") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// The 100 bar is full width, the 50 bar half, the 0 bar empty.
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Fatalf("full bar missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], strings.Repeat("#", 5)) || strings.Contains(lines[2], strings.Repeat("#", 6)) {
		t.Fatalf("half bar wrong: %q", lines[2])
	}
	if strings.Contains(lines[3], "#") {
		t.Fatalf("zero bar has marks: %q", lines[3])
	}
	// Labels align to the widest.
	if !strings.Contains(lines[1], "a  ") {
		t.Fatalf("label padding wrong: %q", lines[1])
	}
}

func TestBarChartAllZero(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "z", []Bar{{Label: "a", Value: 0}}, 0, "%.1f")
	if !strings.Contains(buf.String(), "0.0") {
		t.Fatal("zero value not printed")
	}
}

func TestTimelinePlot(t *testing.T) {
	var a, p metrics.Timeline
	a.Record(0, 5)
	a.Record(100, 12)
	a.Record(400, 12) // no-op
	p.Record(0, 5)
	p.Record(200, 12)
	p.Record(300, 5)
	var buf bytes.Buffer
	Timeline(&buf, "workers", []string{"ASTEAL", "Palirria"},
		[]*metrics.Timeline{&a, &p}, []int{5, 12}, 40)
	out := buf.String()
	for _, want := range []string{"workers", "A=ASTEAL", "P=Palirria", "12 |", "5 |", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q in:\n%s", want, out)
		}
	}
}

func TestTimelineEmptyCurves(t *testing.T) {
	var tl metrics.Timeline
	var buf bytes.Buffer
	Timeline(&buf, "t", []string{"x"}, []*metrics.Timeline{&tl}, []int{5}, 0)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestWorkerBars(t *testing.T) {
	cols := []WorkerColumn{
		{Useful: 100, Total: 100}, // all useful
		{Useful: 50, Total: 100},  // half useful
		{Useful: 0, Total: 100},   // all other
		{Useful: 0, Total: 0},     // idle worker
	}
	var buf bytes.Buffer
	WorkerBars(&buf, "per-worker", cols, 100, 4)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 4 rows + axis.
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want 6:\n%s", len(lines), out)
	}
	// Top row: worker 0 shows '#', worker 2 shows '.', worker 3 blank.
	top := lines[1]
	if !strings.HasPrefix(top, "  |#") {
		t.Fatalf("top row wrong: %q", top)
	}
	if top[4] != '.' && top[4] != '#' { // worker 1 at full height: total=100 -> '.'
		t.Fatalf("worker 1 top = %q", string(top[4]))
	}
	if top[5] != '.' {
		t.Fatalf("worker 2 top = %q, want '.'", string(top[5]))
	}
	if top[6] != ' ' {
		t.Fatalf("idle worker top = %q, want blank", string(top[6]))
	}
}

func TestWorkerBarsAutoNorm(t *testing.T) {
	var buf bytes.Buffer
	WorkerBars(&buf, "t", []WorkerColumn{{Useful: 7, Total: 9}}, 0, 0)
	if !strings.Contains(buf.String(), "full bar = 9 cycles") {
		t.Fatalf("auto norm wrong:\n%s", buf.String())
	}
}

func TestClassGrid(t *testing.T) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotment(m, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ClassGrid(&buf, "grid", topo.Classify(a))
	out := buf.String()
	for _, want := range []string{" s", " X", " Z", " F", " #", " ."} {
		if !strings.Contains(out, want) {
			t.Fatalf("grid missing %q:\n%s", want, out)
		}
	}
	// 4 rows + title + legend.
	if got := len(strings.Split(strings.TrimRight(out, "\n"), "\n")); got != 6 {
		t.Fatalf("lines = %d:\n%s", got, out)
	}
}

func TestClassGrid3D(t *testing.T) {
	m := topo.MustMesh(3, 3, 2)
	a, err := topo.NewAllotment(m, m.ID(topo.Coord{X: 1, Y: 1, Z: 0}), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ClassGrid(&buf, "3d", topo.Classify(a))
	if !strings.Contains(buf.String(), "layer z=1") {
		t.Fatalf("3D layers missing:\n%s", buf.String())
	}
}

func TestMultiClassGrid(t *testing.T) {
	m := topo.MustMesh(6, 6)
	m.Reserve(0)
	a1, _ := topo.NewAllotment(m, m.ID(topo.Coord{X: 1, Y: 1}), 1)
	a2, _ := topo.NewAllotment(m, m.ID(topo.Coord{X: 4, Y: 4}), 1)
	var buf bytes.Buffer
	MultiClassGrid(&buf, "apps", m, []*topo.Allotment{a1, a2})
	out := buf.String()
	for _, want := range []string{" A", " B", " 1", " 2", " #", " ."} {
		if !strings.Contains(out, want) {
			t.Fatalf("multi grid missing %q:\n%s", want, out)
		}
	}
}
