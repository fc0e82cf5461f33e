package core_test

import (
	"fmt"
	"testing"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/topo"
)

// BenchmarkControllerQuantum times one estimation quantum as both
// platforms run it — Controller.Sample over the granted allotment, then
// Step — for Palirria and ASTEAL, on every entry of the paper's two zone
// tables (8x4 source 20: 5/12/20/27 workers; 8x6 source 28: 5 to 45), and
// for each of the three decisions. The per-worker reading is a constant
// fill, so the figure is the controller's own cost. Sample still reads
// every member, so both estimators stay linear in the allotment size.
func BenchmarkControllerQuantum(b *testing.B) {
	const quantum = 50000
	platforms := []struct {
		x, y     int
		reserved []topo.CoreID
		source   topo.CoreID
		maxD     int
	}{
		{8, 4, []topo.CoreID{0, 1}, 20, 4},
		{8, 6, []topo.CoreID{0, 1, 2}, 28, 6},
	}
	// Each case fixes the reading that drives the estimator to one
	// decision: Palirria reads the X workers' µ(Q) marks and the Z
	// workers' bags, ASTEAL the wasted cycles and whether its last
	// request was granted in full.
	cases := []struct {
		est    string
		want   core.Decision
		busy   bool // every worker is executing at the boundary
		mark   int  // every worker's µ(Q) high-water mark
		wasted bool // every worker wastes the whole quantum
	}{
		{"palirria", core.Keep, true, 0, false},
		{"palirria", core.Increase, true, 100, false},
		{"palirria", core.Decrease, false, 0, false},
		{"asteal", core.Keep, true, 0, false},
		{"asteal", core.Increase, true, 0, false},
		{"asteal", core.Decrease, true, 0, true},
	}
	for _, pf := range platforms {
		m := topo.MustMesh(pf.x, pf.y)
		m.Reserve(pf.reserved...)
		zones, err := topo.Zones(m, pf.source, pf.maxD)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range zones {
			for _, tc := range cases {
				if tc.want == core.Increase && a.Size() == m.Usable() ||
					tc.want == core.Decrease && tc.est == "palirria" && a.Diaspora() <= 1 {
					continue // no zone to add, or none to remove
				}
				name := fmt.Sprintf("%dx%d/%d/%s/%s", pf.x, pf.y, a.Size(), tc.est, tc.want)
				b.Run(name, func(b *testing.B) {
					var est core.Estimator = core.NewPalirria()
					if tc.est == "asteal" {
						st := asteal.New()
						if tc.want == core.Keep {
							st.Rho = 1 // an efficient quantum leaves the desire as it is
						}
						est = st
					}
					ctl := core.NewController(est)
					var now int64
					read := func(w *core.WorkerSnapshot) bool {
						w.Busy, w.MaxQueueLen = tc.busy, tc.mark
						if tc.wasted {
							w.WastedCycles = now // cumulative: the whole quantum each time
						}
						return true
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						now += quantum
						ctl.Granted(ctl.Step(ctl.Sample(a, quantum, now, read)))
					}
					if got := core.DecisionOf(a.Size(), ctl.Record(now, a.Size()).Raw); got != tc.want {
						b.Fatalf("raw decision %v, want %v", got, tc.want)
					}
				})
			}
		}
	}
}
