package main

import (
	"fmt"
	"time"

	"palirria/internal/experiments"
	"palirria/internal/metrics"
	"palirria/internal/task"
	"palirria/internal/workload"
)

// sim_paper: the paper's seven workloads on both evaluation platforms
// under Palirria+DVS, ASTEAL+random and every fixed size, one simulation
// at a time. Only sim, core, dvs, topo, task and workload do work. The
// simulator is deterministic, so this is the one place estimator quality
// (cycles, wastefulness) is an exact count, and the workload that catches
// a core or dvs change that helps the real runtime but breaks the
// reproduction.

var simInfo = workloadInfo{
	Name: "sim_paper",
	Why:  "the paper's seven workloads on both simulated platforms, single-threaded and deterministic: estimator quality as exact counts, and only sim/core/dvs/topo do work",
}

const simSLO = 5 * time.Second

// simConfig is one simulation of the sweep.
type simConfig struct {
	platform int
	workload string
	mode     experiments.Mode
	workers  int
}

func (c simConfig) String() string {
	return fmt.Sprintf("p%d/%s/%s/%d", c.platform, c.workload, c.mode, c.workers)
}

// simFingerprint is everything a rerun must reproduce bit for bit.
type simFingerprint struct {
	exec, events, area, tasks, steals, probes, useful, wasted, idle int64
}

type simSample struct {
	wall       float64 // ms
	fp         simFingerprint
	avgWorkers float64
}

func simPlatforms(seed uint64) []experiments.Platform {
	ps := []experiments.Platform{experiments.SimPlatform(), experiments.LinuxPlatform()}
	for i := range ps {
		// The seed drives the random victim selection of the ASTEAL and
		// fixed-size runs; Palirria+DVS draws no random numbers.
		ps[i].Seed = seed + 1
	}
	return ps
}

func simSweep(ps []experiments.Platform, tiny bool) []simConfig {
	var cfgs []simConfig
	for pi, p := range ps {
		if tiny && pi > 0 {
			break
		}
		for _, d := range workload.PaperSet() {
			if tiny && d.Name == "fib" {
				continue // a third of the sweep's cost; tiny only proves the plumbing
			}
			cfgs = append(cfgs, simConfig{pi, d.Name, experiments.ModePalirria, 0}, simConfig{pi, d.Name, experiments.ModeASteal, 0})
			for _, n := range p.FixedSizes {
				cfgs = append(cfgs, simConfig{pi, d.Name, experiments.ModeWOOL, n})
			}
		}
	}
	return cfgs
}

func simOne(ps []experiments.Platform, cfgs []simConfig, i int, rec *recorder, id int64) (simSample, error) {
	c := cfgs[i]
	t0 := nowNS()
	run, err := experiments.Execute(ps[c.platform], c.workload, c.mode, c.workers)
	t1 := nowNS()
	if err != nil {
		return simSample{}, fmt.Errorf("%v: %w", c, err)
	}
	rec.add("sim.run", id, "", t0, t1)
	s := simSample{wall: float64(t1-t0) / 1e6, avgWorkers: run.AvgWorkers}
	s.fp = simFingerprint{
		exec: run.Result.ExecCycles, events: run.Result.Events, area: run.Report.WorkerCycleArea,
		tasks: run.Report.TotalTasks, steals: run.Report.TotalSteals, probes: run.Report.TotalFailedProbes,
	}
	for _, w := range run.Report.Workers {
		s.fp.useful += w.Useful()
		s.fp.wasted += w.Wasted()
		s.fp.idle += w.Cycles[metrics.Idle]
	}
	return s, nil
}

func runSim(rc *runCtx) (*passResult, error) {
	res := newPass()
	ps := simPlatforms(rc.Seed)
	cfgs := simSweep(ps, rc.Tiny)
	res.Notes["loop"] = "closed, one simulation at a time"
	res.Notes["work_unit"] = "simulator events"
	res.Notes["configs"] = len(cfgs)
	res.Notes["slo_ms"] = simSLO.Milliseconds()
	res.Notes["area_unit"] = "worker-megacycles per 1000 tasks, Palirria runs"

	// Set-up is the warm-up: every configuration of the cheapest workloads
	// once, so the heap has its working size before anything is timed.
	_, setups, err := setupRepeated(rc.setupReps(3), func() (struct{}, error) {
		for i, c := range cfgs {
			if c.platform == 0 && c.workload != "fib" {
				if _, err := simOne(ps, cfgs, i, nil, 0); err != nil {
					return struct{}{}, err
				}
			}
		}
		return struct{}{}, nil
	}, func(struct{}) error { return nil })
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if rc.Traced {
		rec = &recorder{}
	}
	// Passes over the whole sweep in a freshly shuffled order, until the
	// time is up — but always one whole pass, because the counts are sums
	// over the sweep. Later passes rerun configurations with the same
	// seed: each must reproduce its first result bit for bit.
	rng := rc.rng(6)
	first := make([]*simSample, len(cfgs))
	walls := make([][]float64, len(cfgs))
	deadline := nowNS() + int64(rc.Seconds*1e9)
	var attempted, reruns, mismatches int64
	var passWalls []float64
	rss := startRSS()
	t0 := nowNS()
pass:
	for p := 0; ; p++ {
		pt0 := nowNS()
		for _, i := range rng.Perm(len(cfgs)) {
			if p > 0 && nowNS() >= deadline {
				break pass
			}
			s, err := simOne(ps, cfgs, i, rec, attempted)
			if err != nil {
				return nil, err
			}
			attempted++
			walls[i] = append(walls[i], s.wall)
			if first[i] == nil {
				first[i] = &s
			} else {
				reruns++
				if first[i].fp != s.fp {
					mismatches++
				}
			}
		}
		passWalls = append(passWalls, float64(nowNS()-pt0)/1e9)
		if nowNS() >= deadline {
			break
		}
	}
	rssPeaks, err := rss.peaks(t0, nowNS(), 5)
	if err != nil {
		return nil, err
	}
	elapsed := float64(nowNS()-t0) / 1e9
	if reruns == 0 {
		// A slow host: the one pass used all the time. Rerun the cheapest
		// configurations anyway; determinism is not optional.
		for i, c := range cfgs {
			if c.platform == 0 && c.workload == "skew" {
				s, err := simOne(ps, cfgs, i, nil, 0)
				if err != nil {
					return nil, err
				}
				reruns++
				if first[i].fp != s.fp {
					mismatches++
				}
			}
		}
	}
	res.check("same_seed_rerun_bit_identical", mismatches == 0, "%d of %d reruns differed from the first run of their configuration", mismatches, reruns)
	res.Notes["reruns_compared"] = reruns
	res.Attempted = attempted

	// Sums over one whole sweep.
	var events, medianWall float64
	var p50s, p90s []float64
	var pa, as simFingerprint
	var paWorkers, paRuns float64
	within := 0
	for i, s := range first {
		events += float64(s.fp.events)
		medianWall += median(walls[i]) / 1e3
		p50s = append(p50s, percentile(walls[i], 0.5))
		p90s = append(p90s, percentile(walls[i], 0.9))
		for _, w := range walls[i] {
			if w <= float64(simSLO.Milliseconds()) {
				within++
			}
		}
		switch cfgs[i].mode {
		case experiments.ModePalirria:
			pa = addFP(pa, s.fp)
			paWorkers += s.avgWorkers
			paRuns++
		case experiments.ModeASteal:
			as = addFP(as, s.fp)
		}
	}
	// Tasks executed against a sequential walk of the same tree.
	want := map[[2]string]int64{}
	var wrongTasks []string
	for i, s := range first {
		c := cfgs[i]
		k := [2]string{ps[c.platform].Name, c.workload}
		if _, ok := want[k]; !ok {
			d, err := workload.Get(c.workload)
			if err != nil {
				return nil, err
			}
			st, err := task.Measure(d.Root(ps[c.platform].WL))
			if err != nil {
				return nil, fmt.Errorf("measure %s: %w", c.workload, err)
			}
			want[k] = st.Tasks
		}
		if s.fp.tasks != want[k] {
			wrongTasks = append(wrongTasks, fmt.Sprintf("%v ran %d, tree holds %d", c, s.fp.tasks, want[k]))
		}
	}
	res.check("tasks_eq_sequential_walk", len(wrongTasks) == 0, "%v", wrongTasks)

	if !rc.Traced {
		res.set("setup_s", median(setups))
		res.Notes["setup_s_all"] = setups
		// Events of one sweep over the sum of each configuration's median
		// wall time: sweep throughput, with every repeat used to steady it.
		res.setSamples("work_per_s", ratio(events, medianWall), int(attempted))
		res.setSamples("job_p50_ms", geomean(p50s), len(cfgs))
		res.setSamples("job_p90_ms", geomean(p90s), len(cfgs))
		res.set("worker_area_per_kwork", ratio(float64(pa.area)/1e6, float64(pa.tasks)/1000))
		res.set("wasted_share", ratio(float64(pa.wasted+pa.idle), float64(pa.useful+pa.wasted+pa.idle)))
		res.Notes["pass_wall_s"] = passWalls
		res.Notes["slo_ok_share"] = ratio(float64(within), float64(attempted))
		res.setWindows("peak_rss_mb", rssPeaks)
		return res, nil
	}

	// Per-layer pass.
	res.set("load.sent", float64(attempted))
	res.set("load.ok", float64(attempted))
	res.set("load.slo_ok_share", ratio(float64(within), float64(attempted)))
	var all []float64
	for _, ws := range walls {
		all = append(all, ws...)
	}
	res.setSamples("load.job_p99_ms", percentile(all, 0.99), len(all))
	// Nothing inside a simulation is visible from outside, so the budget
	// has one layer: the time between simulations is the remainder.
	var busy float64
	for _, s := range rec.spans {
		busy += float64(s.EndNS-s.StartNS) / 1e9
	}
	res.set("load.unattributed_p50_us", 1e6*(elapsed-busy)/float64(attempted))
	var sweep simFingerprint
	for _, s := range first {
		sweep = addFP(sweep, s.fp)
	}
	res.set("sim.events", events)
	res.set("sim.ns_per_event", ratio(medianWall*1e9, events))
	res.set("sim.steals", float64(sweep.steals))
	res.set("sim.failed_probes", float64(sweep.probes))
	res.set("sim.exec_mcycles_palirria", float64(pa.exec)/1e6)
	res.set("sim.exec_mcycles_asteal", float64(as.exec)/1e6)
	res.set("sim.wasted_share_palirria", ratio(float64(pa.wasted+pa.idle), float64(pa.useful+pa.wasted+pa.idle)))
	res.set("sim.wasted_share_asteal", ratio(float64(as.wasted+as.idle), float64(as.useful+as.wasted+as.idle)))
	res.set("sim.avg_workers_palirria", ratio(paWorkers, paRuns))
	res.set("sim.slowdown_pct", simSlowdown(cfgs, first))
	res.set("sim.deterministic_ok", boolF(mismatches == 0))
	path, err := writeTrace(rc.OutDir, simInfo.Name, rec.spans, maxTraceSpans)
	if err != nil {
		return nil, err
	}
	res.Notes["trace_file"] = path
	return res, nil
}

func addFP(a, b simFingerprint) simFingerprint {
	return simFingerprint{
		a.exec + b.exec, a.events + b.events, a.area + b.area, a.tasks + b.tasks, a.steals + b.steals,
		a.probes + b.probes, a.useful + b.useful, a.wasted + b.wasted, a.idle + b.idle,
	}
}

// simSlowdown is the -summary headline: the mean over (platform, workload)
// of Palirria's execution time against the best fixed allotment, in
// percent.
func simSlowdown(cfgs []simConfig, first []*simSample) float64 {
	type key struct {
		platform int
		workload string
	}
	best := map[key]int64{}
	pa := map[key]int64{}
	for i, c := range cfgs {
		k := key{c.platform, c.workload}
		exec := first[i].fp.exec
		switch c.mode {
		case experiments.ModeWOOL:
			if b, ok := best[k]; !ok || exec < b {
				best[k] = exec
			}
		case experiments.ModePalirria:
			pa[k] = exec
		}
	}
	var sum float64
	for k, e := range pa {
		sum += 100 * (float64(e)/float64(best[k]) - 1)
	}
	return ratio(sum, float64(len(pa)))
}
