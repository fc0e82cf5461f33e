package experiments

import (
	"fmt"
	"io"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/dvs"
	"palirria/internal/metrics"
	"palirria/internal/plot"
	"palirria/internal/saws"
	"palirria/internal/sim"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// Fig4 prints the workload input table: the paper's original inputs
// (Fig. 4) next to the scaled inputs this reproduction uses.
func Fig4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: workload input data sets")
	fmt.Fprintf(w, "  %-9s | %-28s | %-28s | %-36s | %-36s\n",
		"workload", "paper input (Barrelfish)", "paper input (Linux)",
		"this repo (simulator)", "this repo (NUMA model)")
	for _, d := range workload.PaperSet() {
		fmt.Fprintf(w, "  %-9s | %-28s | %-28s | %-36s | %-36s\n",
			d.Name, d.PaperInputSim, d.PaperInputLinux,
			d.Inputs[workload.Simulator].String(), d.Inputs[workload.NUMA].String())
	}
	fmt.Fprintln(w, "  (inputs scaled to keep the full evaluation laptop-sized; shapes preserved, see DESIGN.md)")
}

// FigPerformance prints one platform's performance figure (Fig. 5 for the
// simulator, Fig. 7 for the Linux model): per workload, column (a)
// normalized execution time, column (b) wastefulness, column (c) the
// adaptive worker-count timelines.
func FigPerformance(w io.Writer, p Platform, suite []WorkloadRuns) {
	fmt.Fprintf(w, "Performance measurements, on %s\n", p.Name)
	for _, wr := range suite {
		fmt.Fprintf(w, "\n== %s ==\n", wr.Workload)
		var execBars, wasteBars []plot.Bar
		for _, r := range wr.All() {
			execBars = append(execBars, plot.Bar{Label: r.label(), Value: r.NormExec})
			wasteBars = append(wasteBars, plot.Bar{Label: r.label(), Value: r.WastePct})
		}
		plot.BarChart(w, "(a) exec time, % of 5 workers (shorter is better)", execBars, 50, "%.0f%%")
		plot.BarChart(w, "(b) wastefulness, % of exec time", wasteBars, 50, "%.1f%%")
		levels := append([]int(nil), p.FixedSizes...)
		plot.Timeline(w, "(c) allotment size over time",
			[]string{"ASTEAL", "Palirria"},
			[]*metrics.Timeline{wr.ASteal.Result.Timeline, wr.Palirria.Result.Timeline},
			levels, 64)
	}
}

// FigPerWorker prints one platform's per-worker useful-time figure
// (Fig. 6 for the simulator, Fig. 8 for the Linux model): useful vs other
// cycles per worker, ordered by zone, for the reference fixed run and the
// two adaptive runs. refIdx selects the reference fixed size (the paper
// uses W27/W42: the second-best performer overall).
func FigPerWorker(w io.Writer, p Platform, suite []WorkloadRuns, refIdx int) {
	fmt.Fprintf(w, "Per worker useful time, on %s (ordered by zone)\n", p.Name)
	for _, wr := range suite {
		ref := wr.Fixed[refIdx]
		norm := sourceTotal(p, ref)
		fmt.Fprintf(w, "\n== %s ==\n", wr.Workload)
		for _, r := range []Run{ref, wr.ASteal, wr.Palirria} {
			cols := workerColumns(p, r)
			plot.WorkerBars(w, fmt.Sprintf("%s / %s", wr.Workload, r.label()), cols, norm, 8)
		}
	}
}

// sourceTotal returns the source worker's total cycles in run r — the
// normalization bar of Figs. 6/8.
func sourceTotal(p Platform, r Run) int64 {
	if ws := r.Result.Workers[p.Source]; ws != nil {
		return ws.Total()
	}
	return 0
}

// workerColumns orders the run's workers by (zone, id) against the
// platform's maximal allotment and extracts useful/total cycles.
func workerColumns(p Platform, r Run) []plot.WorkerColumn {
	zones, err := topo.Zones(p.Mesh(), p.Source, len(p.FixedSizes))
	if err != nil {
		return nil
	}
	var cols []plot.WorkerColumn
	for _, id := range zones[len(zones)-1].Members() {
		ws, ok := r.Result.Workers[id]
		if !ok {
			continue
		}
		cols = append(cols, plot.WorkerColumn{Useful: ws.Useful(), Total: ws.Total()})
	}
	return cols
}

// Fig1 renders the 41-worker classification of the paper's Fig. 1 on a
// 9x9 mesh with a centered source (the symmetric allotment the paper
// illustrates).
func Fig1(w io.Writer) error {
	m := topo.MustMesh(9, 9)
	src := m.ID(topo.Coord{X: 4, Y: 4})
	a, err := topo.NewAllotment(m, src, 4)
	if err != nil {
		return err
	}
	plot.ClassGrid(w, fmt.Sprintf("Figure 1: %d-worker allotment classified per the DVS rule set", a.Size()),
		topo.Classify(a))
	return nil
}

// Fig2 renders the paper's Fig. 2: three applications sharing a mesh, each
// with an incomplete allotment.
func Fig2(w io.Writer) error {
	m := topo.MustMesh(9, 9)
	apps := []struct {
		src   topo.Coord
		cores []topo.Coord
	}{
		{topo.Coord{X: 2, Y: 2}, []topo.Coord{{X: 1, Y: 2}, {X: 3, Y: 2}, {X: 2, Y: 1}, {X: 2, Y: 3}, {X: 1, Y: 1}, {X: 3, Y: 1}, {X: 0, Y: 2}, {X: 2, Y: 0}}},
		{topo.Coord{X: 6, Y: 2}, []topo.Coord{{X: 5, Y: 2}, {X: 7, Y: 2}, {X: 6, Y: 1}, {X: 6, Y: 3}, {X: 7, Y: 3}, {X: 5, Y: 3}}},
		{topo.Coord{X: 4, Y: 6}, []topo.Coord{{X: 3, Y: 6}, {X: 5, Y: 6}, {X: 4, Y: 5}, {X: 4, Y: 7}, {X: 3, Y: 7}, {X: 5, Y: 5}, {X: 2, Y: 6}, {X: 6, Y: 6}, {X: 4, Y: 8}}},
	}
	var allots []*topo.Allotment
	for _, app := range apps {
		var ids []topo.CoreID
		for _, c := range app.cores {
			ids = append(ids, m.ID(c))
		}
		a, err := topo.NewAllotmentFromCores(m, m.ID(app.src), ids)
		if err != nil {
			return err
		}
		allots = append(allots, a)
	}
	plot.MultiClassGrid(w, "Figure 2: three applications deployed with incomplete classes", m, allots)
	return nil
}

// Fig3 renders the paper's Fig. 3: the DVS task flow over the Fig. 1
// allotment, as primary-victim arrows.
func Fig3(w io.Writer) error {
	m := topo.MustMesh(9, 9)
	src := m.ID(topo.Coord{X: 4, Y: 4})
	a, err := topo.NewAllotment(m, src, 4)
	if err != nil {
		return err
	}
	c := topo.Classify(a)
	p := dvs.New(c)
	plot.FlowGrid(w, "Figure 3: task flow under DVS (each worker points at its primary victim)", c, p.Victims)
	return nil
}

// Fig9 renders the paper's Fig. 9: the classification of the two largest
// evaluation allotments, (a) 27 workers on the 8x4 simulator mesh with
// source core 20, (b) 35 workers on the 8x6 mesh with source core 28.
func Fig9(w io.Writer) error {
	simP := SimPlatform()
	m := simP.Mesh()
	a, err := topo.NewAllotment(m, simP.Source, 4)
	if err != nil {
		return err
	}
	plot.ClassGrid(w, fmt.Sprintf("Figure 9(a): %d workers on 8x4, source core %d", a.Size(), simP.Source),
		topo.Classify(a))

	linux := LinuxPlatform()
	m2 := linux.Mesh()
	b, err := topo.NewAllotment(m2, linux.Source, 4)
	if err != nil {
		return err
	}
	plot.ClassGrid(w, fmt.Sprintf("Figure 9(b): %d workers on 8x6, source core %d", b.Size(), linux.Source),
		topo.Classify(b))
	return nil
}

// Summary aggregates the paper's headline claims over a suite: average
// adaptive slowdown vs the best fixed allotment, average wastefulness
// reduction, and the accuracy comparison (execution time x resources).
type Summary struct {
	// AvgSlowdownAS / AvgSlowdownPA: mean over workloads of
	// exec(mode)/exec(best fixed) - 1, in percent. Negative = faster.
	AvgSlowdownAS, AvgSlowdownPA float64
	// AvgWasteAS, AvgWastePA, AvgWasteFixedBest: mean wastefulness.
	AvgWasteAS, AvgWastePA, AvgWasteFixedBest float64
	// AvgWorkersAS, AvgWorkersPA: mean time-averaged allotment sizes.
	AvgWorkersAS, AvgWorkersPA float64
	// PAFasterCount counts workloads where Palirria beat ASTEAL.
	PAFasterCount, Workloads int
	// PALeanerCount counts workloads where Palirria used fewer worker-
	// cycles than ASTEAL.
	PALeanerCount int
}

// Summarize computes the headline aggregates for a suite.
func Summarize(suite []WorkloadRuns) Summary {
	var s Summary
	for _, wr := range suite {
		best := wr.Fixed[0]
		for _, r := range wr.Fixed[1:] {
			if r.Result.ExecCycles < best.Result.ExecCycles {
				best = r
			}
		}
		s.AvgSlowdownAS += 100 * (float64(wr.ASteal.Result.ExecCycles)/float64(best.Result.ExecCycles) - 1)
		s.AvgSlowdownPA += 100 * (float64(wr.Palirria.Result.ExecCycles)/float64(best.Result.ExecCycles) - 1)
		s.AvgWasteAS += wr.ASteal.WastePct
		s.AvgWastePA += wr.Palirria.WastePct
		s.AvgWasteFixedBest += best.WastePct
		s.AvgWorkersAS += wr.ASteal.AvgWorkers
		s.AvgWorkersPA += wr.Palirria.AvgWorkers
		if wr.Palirria.Result.ExecCycles <= wr.ASteal.Result.ExecCycles {
			s.PAFasterCount++
		}
		if wr.Palirria.Report.WorkerCycleArea <= wr.ASteal.Report.WorkerCycleArea {
			s.PALeanerCount++
		}
		s.Workloads++
	}
	n := float64(s.Workloads)
	if n > 0 {
		s.AvgSlowdownAS /= n
		s.AvgSlowdownPA /= n
		s.AvgWasteAS /= n
		s.AvgWastePA /= n
		s.AvgWasteFixedBest /= n
		s.AvgWorkersAS /= n
		s.AvgWorkersPA /= n
	}
	return s
}

// PrintSummary writes the headline comparison.
func PrintSummary(w io.Writer, p Platform, s Summary) {
	fmt.Fprintf(w, "Headline summary, %s (%d workloads)\n", p.Name, s.Workloads)
	fmt.Fprintf(w, "  avg slowdown vs best fixed:  ASTEAL %+.1f%%  Palirria %+.1f%%\n", s.AvgSlowdownAS, s.AvgSlowdownPA)
	fmt.Fprintf(w, "  avg wastefulness:            ASTEAL %.1f%%  Palirria %.1f%%  (best fixed %.1f%%)\n",
		s.AvgWasteAS, s.AvgWastePA, s.AvgWasteFixedBest)
	fmt.Fprintf(w, "  avg workers used:            ASTEAL %.1f  Palirria %.1f\n", s.AvgWorkersAS, s.AvgWorkersPA)
	fmt.Fprintf(w, "  Palirria faster or equal:    %d/%d workloads\n", s.PAFasterCount, s.Workloads)
	fmt.Fprintf(w, "  Palirria fewer worker-cycles: %d/%d workloads\n", s.PALeanerCount, s.Workloads)
}

// --- Ablations -----------------------------------------------------------

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label      string
	ExecCycles int64
	WastePct   float64
	AvgWorkers float64
	Changes    int
}

// variant is one row of an ablation: a label and the single change it
// makes to the base configuration.
type variant struct {
	label string
	set   func(*sim.Config)
}

// ablate runs one row per variant over workload wl: the platform's
// configuration for mode, with the variant's change applied.
func ablate(p Platform, wl string, mode Mode, variants []variant) ([]AblationRow, error) {
	d, err := workload.Get(wl)
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	for _, v := range variants {
		cfg, err := p.Config(d.Root(p.WL), mode, 0)
		if err != nil {
			return nil, err
		}
		v.set(&cfg)
		r, err := RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			Label:      v.label,
			ExecCycles: r.Result.ExecCycles,
			WastePct:   r.WastePct,
			AvgWorkers: r.AvgWorkers,
			Changes:    r.Result.Decisions.Changes(),
		})
	}
	return out, nil
}

// AblationQuantum sweeps the estimation interval (§3: "a long interval
// will miss important fluctuations... a short interval might create
// unnecessary overhead and confuse short bursts as prolonged behavior").
// The bursty workload exposes both failure modes.
func AblationQuantum(p Platform, wl string, quanta []int64) ([]AblationRow, error) {
	var vs []variant
	for _, q := range quanta {
		vs = append(vs, variant{fmt.Sprintf("quantum=%d", q), func(c *sim.Config) { c.Quantum = q }})
	}
	return ablate(p, wl, ModePalirria, vs)
}

// AblationL sweeps the threshold offset: L = µ(O_i) + offset (§4.1.1:
// different values of L "can tune the tolerance of the model").
func AblationL(p Platform, wl string, offsets []int) ([]AblationRow, error) {
	var vs []variant
	for _, off := range offsets {
		vs = append(vs, variant{fmt.Sprintf("L=µ(O)%+d", off), func(c *sim.Config) {
			est := core.NewPalirria()
			est.LOffset = off
			c.Estimator = est
		}})
	}
	return ablate(p, wl, ModePalirria, vs)
}

// AblationVictim compares victim selection policies under a fixed maximal
// allotment: the cost/benefit of determinism in isolation.
func AblationVictim(p Platform, wl string) ([]AblationRow, error) {
	var vs []variant
	for _, policy := range []string{"random", "roundrobin", "dvs"} {
		vs = append(vs, variant{policy, func(c *sim.Config) { c.Policy = policy }})
	}
	return ablate(p, wl, ModeWOOL, vs)
}

// AblationFilter compares Palirria with and without the system-level
// false-positive filter.
func AblationFilter(p Platform, wl string) ([]AblationRow, error) {
	return ablate(p, wl, ModePalirria, []variant{
		{"filter=on", func(c *sim.Config) { c.NoFilter = false }},
		{"filter=off", func(c *sim.Config) { c.NoFilter = true }},
	})
}

// OverheadRow compares the estimators' per-decision cost (paper §3.2:
// Palirria's conditions are evaluated "for only a small but specific
// subset of the workers" while ASTEAL reads every worker's cycle
// counters).
type OverheadRow struct {
	AllotmentSize int
	// PalirriaWorst is the DMC's worst-case inspection count: |X ∪ Z|
	// distinct workers (both conditions scanned to the end).
	PalirriaWorst int
	// PalirriaTypical is the measured inspection count on a balanced
	// snapshot, where the conditions short-circuit.
	PalirriaTypical int
	// AStealInspected is the number of workers whose wasted-cycle counter
	// ASTEAL sums: the whole allotment, every quantum.
	AStealInspected int
}

// EstimatorOverhead evaluates both estimators' inspection cost on every
// allotment size of the platform.
func EstimatorOverhead(p Platform) ([]OverheadRow, error) {
	zones, err := topo.Zones(p.Mesh(), p.Source, len(p.FixedSizes))
	if err != nil {
		return nil, err
	}
	var out []OverheadRow
	for _, a := range zones {
		class := topo.Classify(a)
		// A balanced snapshot: Z busy (decrease short-circuits), X queues
		// modest (increase short-circuits at the first below-threshold).
		ws := make(map[topo.CoreID]*core.WorkerSnapshot, a.Size())
		for _, id := range a.Members() {
			ws[id] = &core.WorkerSnapshot{ID: id, QueueLen: 1, MaxQueueLen: 1, Busy: true}
		}
		snap := &core.Snapshot{Allotment: a, Class: class, Workers: ws, QuantumCycles: p.Quantum}
		pal := core.NewPalirria()
		pal.Decide(snap)
		union := map[topo.CoreID]bool{}
		for _, id := range class.X() {
			union[id] = true
		}
		for _, id := range class.Z() {
			union[id] = true
		}
		out = append(out, OverheadRow{
			AllotmentSize:   a.Size(),
			PalirriaWorst:   len(union),
			PalirriaTypical: pal.EstimateCost(),
			AStealInspected: a.Size(),
		})
	}
	return out, nil
}

// PrintOverhead renders the estimator-overhead comparison.
func PrintOverhead(w io.Writer, p Platform, rows []OverheadRow) {
	fmt.Fprintf(w, "Estimation overhead, %s (workers inspected per decision)\n", p.Name)
	fmt.Fprintf(w, "  %-10s %-18s %-18s %-10s\n", "allotment", "palirria (worst)", "palirria (typical)", "asteal")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %-18d %-18d %-10d\n",
			r.AllotmentSize, r.PalirriaWorst, r.PalirriaTypical, r.AStealInspected)
	}
}

// AblationStealableSlots sweeps the bounded stealable-slot count of the
// WOOL task queue (§2.1: "a predefined number of stealable and
// non-stealable task slots, with the former being much less but populated
// first... set to the same constant number that is sufficient for the
// largest number of workers"). Too few slots cap µ(Q) below Palirria's
// thresholds and starve thieves; beyond sufficiency the value is inert.
func AblationStealableSlots(p Platform, wl string, slots []int) ([]AblationRow, error) {
	var vs []variant
	for _, n := range slots {
		vs = append(vs, variant{fmt.Sprintf("slots=%d", n), func(c *sim.Config) { c.StealableSlots = n }})
	}
	return ablate(p, wl, ModePalirria, vs)
}

// AblationPalirriaNeedsDVS tests the paper's §3.2 requirement: "Palirria
// requires deterministic victim selection". With random victims the task
// concentration is unpredictable, so the DMC reads queue sizes that do not
// reflect the workload's flow — decisions misfire in both directions.
// The rows compare Palirria over DVS against the (invalid) Palirria over
// random victims, on a fluctuating workload where accuracy matters.
func AblationPalirriaNeedsDVS(p Platform, wl string) ([]AblationRow, error) {
	var vs []variant
	for _, policy := range []string{"dvs", "random"} {
		vs = append(vs, variant{"palirria+" + policy, func(c *sim.Config) { c.Policy = policy }})
	}
	return ablate(p, wl, ModePalirria, vs)
}

// AblationEstimators compares the three estimator families on one
// workload: Palirria (queue sizes + DVS determinism), ASTEAL (wasted
// cycles, any victim policy) and SAWS (sampled queue sizes, any victim
// policy — Cao et al., the paper's §7).
func AblationEstimators(p Platform, wl string) ([]AblationRow, error) {
	return ablate(p, wl, ModePalirria, []variant{
		{"palirria+dvs", func(c *sim.Config) { c.Estimator, c.Policy = core.NewPalirria(), "dvs" }},
		{"asteal+random", func(c *sim.Config) { c.Estimator, c.Policy = asteal.New(), "random" }},
		{"saws+random", func(c *sim.Config) { c.Estimator, c.Policy = saws.New(p.Seed), "random" }},
		{"saws+dvs", func(c *sim.Config) { c.Estimator, c.Policy = saws.New(p.Seed), "dvs" }},
	})
}

// PrintAblation renders an ablation table.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-16s %14s %9s %8s %8s\n", "config", "exec cycles", "waste%", "avg w", "changes")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %14d %8.1f%% %8.1f %8d\n", r.Label, r.ExecCycles, r.WastePct, r.AvgWorkers, r.Changes)
	}
}
