package experiments

import (
	"fmt"
	"io"

	"palirria/internal/sim"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

// MultiprogResult is one co-scheduling configuration's outcome.
type MultiprogResult struct {
	// Label names the configuration ("palirria", "asteal", "fixed").
	Label string
	// MakespanCycles is when the last job finished.
	MakespanCycles int64
	// JobExec maps job names to their makespans.
	JobExec map[string]int64
	// AvgWorkerCycles is the total worker-cycle area across jobs.
	AvgWorkerCycles int64
}

// Multiprogrammed runs the paper's "next step" (§8): three applications —
// one irregular (strassen), one highly parallel (fib scaled down), one
// phase-structured (sort) — co-scheduled on a 9x9 mesh under three
// policies: every job adaptive with Palirria, every job adaptive with
// ASTEAL, and a static equal split. Adaptive estimation lets demand
// complementarity raise whole-machine utilization: the static split
// cannot move cores from the drained jobs to the hungry one.
func Multiprogrammed(quantum int64) ([]MultiprogResult, error) {
	mesh := func() *topo.Mesh {
		m := topo.MustMesh(9, 9)
		m.Reserve(0, 1)
		return m
	}
	type jobdef struct {
		name string
		wl   string
		src  topo.Coord
	}
	jobs := []jobdef{
		{"irregular", "strassen", topo.Coord{X: 2, Y: 2}},
		{"parallel", "stress", topo.Coord{X: 6, Y: 2}},
		{"phases", "sort", topo.Coord{X: 4, Y: 6}},
	}
	build := func(mode Mode) (sim.MultiConfig, error) {
		m := mesh()
		cfg := sim.MultiConfig{Mesh: m, Quantum: quantum, Seed: 9}
		for _, jd := range jobs {
			d, err := workload.Get(jd.wl)
			if err != nil {
				return cfg, err
			}
			policy, est, err := mode.scheduler()
			if err != nil {
				return cfg, err
			}
			j := sim.Job{
				Name:      jd.name,
				Source:    m.ID(jd.src),
				Root:      d.Root(workload.Simulator),
				Policy:    policy,
				Estimator: est,
			}
			if est == nil {
				j.FixedWorkers = 26 // equal split of the 79 usable cores
			}
			cfg.Jobs = append(cfg.Jobs, j)
		}
		return cfg, nil
	}

	var out []MultiprogResult
	for _, run := range []struct {
		label string
		mode  Mode
	}{{"fixed", ModeWOOL}, {"asteal", ModeASteal}, {"palirria", ModePalirria}} {
		cfg, err := build(run.mode)
		if err != nil {
			return nil, err
		}
		res, err := sim.RunMulti(cfg)
		if err != nil {
			return nil, fmt.Errorf("multiprog %s: %w", run.label, err)
		}
		mr := MultiprogResult{
			Label:          run.label,
			MakespanCycles: res.MakespanCycles,
			JobExec:        map[string]int64{},
		}
		for _, jr := range res.Jobs {
			mr.JobExec[jr.Name] = jr.ExecCycles()
			mr.AvgWorkerCycles += jr.Timeline.Area(jr.FinishCycles)
		}
		out = append(out, mr)
	}
	return out, nil
}

// PrintMultiprogrammed renders the co-scheduling comparison.
func PrintMultiprogrammed(w io.Writer, rows []MultiprogResult) {
	fmt.Fprintln(w, "Multiprogrammed co-scheduling (3 jobs on a 9x9 mesh; paper §8 next step)")
	fmt.Fprintf(w, "  %-10s %14s %14s %14s %14s %16s\n",
		"policy", "makespan", "irregular", "parallel", "phases", "worker-cycles")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %14d %14d %14d %14d %16d\n",
			r.Label, r.MakespanCycles,
			r.JobExec["irregular"], r.JobExec["parallel"], r.JobExec["phases"],
			r.AvgWorkerCycles)
	}
}
