// Package experiments reproduces the paper's evaluation: every figure and
// table of §5/§6, plus the ablations DESIGN.md lists. Each experiment is a
// pure function from a Platform to printable results, so the cmd tools,
// the benchmark harness and the tests all share one implementation.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/sim"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// Platform bundles one evaluation platform's configuration.
type Platform struct {
	// Name is the figure caption name.
	Name string
	// WL selects the workload input scale.
	WL workload.Platform
	// Source is the core workloads start on.
	Source topo.CoreID
	// FixedSizes are the paper's fixed allotments for this platform: the
	// sizes of its complete allotments of diaspora 1..len(FixedSizes),
	// which also caps adaptive growth.
	FixedSizes []int
	// Quantum is the estimation interval in cycles.
	Quantum int64
	// Seed drives random victim selection.
	Seed uint64

	newMesh    func() *topo.Mesh
	newMachine func(*topo.Mesh) sim.MachineModel
}

// Mesh returns a fresh mesh with the platform's reservations applied.
func (p Platform) Mesh() *topo.Mesh { return p.newMesh() }

// Machine returns the platform's machine model over mesh.
func (p Platform) Machine(m *topo.Mesh) sim.MachineModel { return p.newMachine(m) }

// SimPlatform is the paper's simulated platform: 32-core 8x4 mesh,
// Barrelfish, ideal 1-cycle machine, cores 0-1 reserved, source core 20,
// fixed allotments 5/12/20/27.
func SimPlatform() Platform {
	return Platform{
		Name:       "Barrelfish (simulator)",
		WL:         workload.Simulator,
		Source:     20,
		FixedSizes: []int{5, 12, 20, 27},
		// Small relative to run lengths (the paper's "small fixed
		// interval") so adaptation dynamics, not ramp cost, dominate.
		Quantum: 50000,
		Seed:    9,
		newMesh: func() *topo.Mesh {
			m := topo.MustMesh(8, 4)
			m.Reserve(0, 1)
			return m
		},
		newMachine: func(*topo.Mesh) sim.MachineModel { return sim.Ideal{} },
	}
}

// LinuxPlatform is the paper's real-hardware platform as modelled: 48-core
// 8x6 mesh (Opteron 6172: 8 NUMA nodes of 6 cores), cores 0-2 reserved
// (see DESIGN.md on the third reservation), source core 28, fixed
// allotments 5/13/24/35/42/45, NUMA machine model.
func LinuxPlatform() Platform {
	return Platform{
		Name:       "Linux (real hardware model)",
		WL:         workload.NUMA,
		Source:     28,
		FixedSizes: []int{5, 13, 24, 35, 42, 45},
		Quantum:    50000,
		Seed:       9,
		newMesh: func() *topo.Mesh {
			m := topo.MustMesh(8, 6)
			m.Reserve(0, 1, 2)
			return m
		},
		newMachine: func(m *topo.Mesh) sim.MachineModel { return sim.NewNUMA(m) },
	}
}

// Mode identifies a scheduler configuration of the evaluation.
type Mode string

const (
	// ModeWOOL is the original non-adaptive runtime with its random victim
	// selection, run at a fixed allotment size.
	ModeWOOL Mode = "wool"
	// ModeASteal is WOOL plus the ASTEAL estimator (victim selection
	// unchanged: random).
	ModeASteal Mode = "asteal"
	// ModePalirria is WOOL with DVS victim selection plus the Palirria
	// estimator.
	ModePalirria Mode = "palirria"
)

// Run is one configured execution and its derived metrics.
type Run struct {
	// Workload and Mode identify the configuration; Workers is WOOL's
	// fixed allotment size (0 for adaptive modes).
	Workload string
	Mode     Mode
	Workers  int
	// Result is the raw simulator outcome.
	Result *sim.Result
	// Report is the aggregated metrics.
	Report *metrics.Report
	// NormExec is execution time as % of the 5-worker fixed run.
	NormExec float64
	// WastePct is the paper's wastefulness metric.
	WastePct float64
	// AvgWorkers is the time-averaged allotment size.
	AvgWorkers float64
}

// label names the run like the paper's x axes: "5", "27", "AS", "PA".
func (r Run) label() string {
	switch r.Mode {
	case ModeASteal:
		return "AS"
	case ModePalirria:
		return "PA"
	default:
		return fmt.Sprintf("%d", r.Workers)
	}
}

// scheduler maps a mode to its victim policy and a fresh estimator (nil
// for WOOL's fixed allotment).
func (m Mode) scheduler() (policy string, est core.Estimator, err error) {
	switch m {
	case ModeWOOL:
		return "random", nil, nil
	case ModeASteal:
		return "random", asteal.New(), nil
	case ModePalirria:
		return "dvs", core.NewPalirria(), nil
	}
	return "", nil, fmt.Errorf("experiments: unknown scheduler %q (wool, asteal, palirria)", m)
}

// Config is the simulator configuration of one run of root on the
// platform under mode. Adaptive modes start at diaspora 1 and ignore
// workers; WOOL runs a fixed allotment of workers, where 0 means the
// platform's largest fixed size. A size that is not exactly one of the
// platform's complete allotments (FixedSizes) is refused, never rounded.
func (p Platform) Config(root *task.Spec, mode Mode, workers int) (sim.Config, error) {
	policy, est, err := mode.scheduler()
	if err != nil {
		return sim.Config{}, err
	}
	mesh := p.Mesh()
	cfg := sim.Config{
		Mesh:            mesh,
		Source:          p.Source,
		Root:            root,
		Machine:         p.Machine(mesh),
		InitialDiaspora: 1,
		MaxDiaspora:     len(p.FixedSizes),
		Policy:          policy,
		Estimator:       est,
		Quantum:         p.Quantum,
		Seed:            p.Seed,
	}
	if est == nil {
		largest := p.FixedSizes[len(p.FixedSizes)-1]
		if workers == 0 {
			workers = largest
		}
		// FixedSizes[i] is the size of the complete allotment of diaspora
		// i+1 (TestFixedSizesAreZoneSizes).
		i := slices.Index(p.FixedSizes, workers)
		if i < 0 {
			sizes := make([]string, len(p.FixedSizes))
			for i, n := range p.FixedSizes {
				sizes[i] = strconv.Itoa(n)
			}
			return sim.Config{}, fmt.Errorf("experiments: %d workers is not a complete allotment on %s (sizes %s, cap of %d workers)",
				workers, p.Name, strings.Join(sizes, "/"), largest)
		}
		cfg.InitialDiaspora = i + 1
	}
	return cfg, nil
}

// RunConfig runs one simulator configuration and derives its metrics.
func RunConfig(cfg sim.Config) (Run, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return Run{}, err
	}
	rep := res.Report()
	run := Run{Result: res, Report: rep, WastePct: rep.WastefulnessPercent()}
	if res.ExecCycles > 0 {
		run.AvgWorkers = float64(res.Timeline.Area(res.ExecCycles)) / float64(res.ExecCycles)
	}
	return run, nil
}

// Execute runs workload wl on the platform under mode; fixedWorkers is
// WOOL's allotment size (see Platform.Config).
func Execute(p Platform, wl string, mode Mode, fixedWorkers int) (Run, error) {
	d, err := workload.Get(wl)
	if err != nil {
		return Run{}, err
	}
	cfg, err := p.Config(d.Root(p.WL), mode, fixedWorkers)
	if err != nil {
		return Run{}, err
	}
	run, err := RunConfig(cfg)
	if err != nil {
		return Run{}, fmt.Errorf("experiments: %s/%s: %w", wl, mode, err)
	}
	run.Workload, run.Mode = wl, mode
	if mode == ModeWOOL {
		run.Workers = run.Report.MaxWorkers
	}
	return run, nil
}

// WorkloadRuns holds all configurations of one workload on one platform:
// the fixed series plus the two adaptive runs, with NormExec filled in
// relative to the first fixed size.
type WorkloadRuns struct {
	Workload string
	Fixed    []Run
	ASteal   Run
	Palirria Run
}

// All returns every run in figure order (fixed sizes, AS, PA).
func (wr WorkloadRuns) All() []Run {
	out := append([]Run(nil), wr.Fixed...)
	return append(out, wr.ASteal, wr.Palirria)
}

// RunWorkload executes the full configuration sweep for one workload:
// every fixed size, then ASTEAL and Palirria. Under several seeds it
// keeps, per configuration, the second-best execution time — the paper's
// reporting methodology ("the results reported were of the second best
// run among 10", §5); no seeds means one sweep under p.Seed. Only the
// random-victim configurations (WOOL, ASTEAL) vary with the seed;
// Palirria is deterministic, so its runs are identical and the second
// best equals the only result.
func RunWorkload(p Platform, wl string, seeds []uint64) (WorkloadRuns, error) {
	if len(seeds) == 0 {
		seeds = []uint64{p.Seed}
	}
	type config struct {
		mode    Mode
		workers int
	}
	var configs []config
	for _, n := range p.FixedSizes {
		configs = append(configs, config{ModeWOOL, n})
	}
	configs = append(configs, config{ModeASteal, 0}, config{ModePalirria, 0})
	picked := make([]Run, len(configs))
	for i, c := range configs {
		runs := make([]Run, len(seeds))
		for j, seed := range seeds {
			ps := p
			ps.Seed = seed
			r, err := Execute(ps, wl, c.mode, c.workers)
			if err != nil {
				return WorkloadRuns{}, err
			}
			runs[j] = r
		}
		// Second best = second smallest exec (best when only one run).
		sort.SliceStable(runs, func(a, b int) bool { return runs[a].Result.ExecCycles < runs[b].Result.ExecCycles })
		picked[i] = runs[min(1, len(runs)-1)]
	}
	// Normalize against the selected 5-worker run.
	if base := float64(picked[0].Result.ExecCycles); base > 0 {
		for i := range picked {
			picked[i].NormExec = 100 * float64(picked[i].Result.ExecCycles) / base
		}
	}
	n := len(p.FixedSizes)
	return WorkloadRuns{Workload: wl, Fixed: picked[:n:n], ASteal: picked[n], Palirria: picked[n+1]}, nil
}

// RunSuite executes the paper's seven workloads on platform p (see
// RunWorkload for seeds).
func RunSuite(p Platform, seeds []uint64) ([]WorkloadRuns, error) {
	var out []WorkloadRuns
	for _, d := range workload.PaperSet() {
		wr, err := RunWorkload(p, d.Name, seeds)
		if err != nil {
			return nil, err
		}
		out = append(out, wr)
	}
	return out, nil
}
