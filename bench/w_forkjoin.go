package main

import (
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"time"

	"palirria/internal/core"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
	"palirria/internal/wsrt"
)

// forkjoin_batch: closed batch. Every job is one wsrt.New + Run of one
// program on the 4x2 mesh under Palirria+DVS, quantum 1 ms. Spawn/sync,
// deque.ChaseLev, steal probes and the helper loop do nearly all the work;
// the injection shards, serve and cluster do none.

var forkjoinInfo = workloadInfo{
	Name: "forkjoin_batch",
	Why:  "closed batch of the paper's spec trees and three native kernels on wsrt.New+Run: spawn/sync, ChaseLev and steal probes do the work, the serving layers none",
}

// budgetKind is the program whose runs the per-layer budget is taken over:
// the paper's runtime stress test, mid-sized in this mix.
const budgetKind = "stress"

const (
	forkjoinWindows = 5
	forkjoinSLO     = time.Second
	// maxLost is how many times in a row a run's root may be lost before
	// the run has failed.
	maxLost = 3
)

// fjKind is one program of the mix. prepare returns the body of one run
// and the check of what it computed.
type fjKind struct {
	name      string
	wantTasks int64 // tasks the runtime must report; 0 when the kernel's own output is the check
	prepare   func() (wsrt.Func, func() error)
}

// fjKinds builds the mix: the paper's seven trees at the repository's
// simulator-scale inputs, and three native kernels whose outputs are
// checked. The trees are the same in every run, as they are in sim_paper
// (their own input seeds change their shape and with it the work per run:
// ±10 % on every rate between otherwise identical runs); the benchmark's
// seed decides the order of the mix, the data the sort works on and the
// runtime's own seed.
func fjKinds(rc *runCtx) ([]fjKind, error) {
	var kinds []fjKind
	for _, d := range workload.PaperSet() {
		d := d
		in := d.Inputs[workload.Simulator]
		if rc.Tiny && d.Name == "fib" {
			in.N = 16
		}
		// The sequential walk: what the tree holds, however it is scheduled.
		st, err := task.Measure(d.Build(in))
		if err != nil {
			return nil, fmt.Errorf("measure %s: %w", d.Name, err)
		}
		kinds = append(kinds, fjKind{
			name:      d.Name,
			wantTasks: st.Spawns + 1, // the runtime counts the root and every spawn; calls run inline
			prepare: func() (wsrt.Func, func() error) {
				return wsrt.SpecFunc(d.Build(in)), func() error { return nil }
			},
		})
	}

	n := 200_000
	if rc.Tiny {
		n = 20_000
	}
	rng := rc.rng(3)
	base := make([]int, n)
	var baseSum int64
	for i := range base {
		base[i] = rng.Intn(1 << 30)
		baseSum += int64(base[i])
	}
	kinds = append(kinds, fjKind{name: "native_mergesort", prepare: func() (wsrt.Func, func() error) {
		data := append([]int(nil), base...)
		return wsrt.ParallelMergeSort(data, 2048), func() error {
			var sum int64
			for _, v := range data {
				sum += int64(v)
			}
			if !sort.IntsAreSorted(data) || sum != baseSum {
				return fmt.Errorf("merge sort output is not the sorted input")
			}
			return nil
		}
	}})
	queens, solutions := 10, int64(724)
	if rc.Tiny {
		queens, solutions = 8, 92
	}
	kinds = append(kinds, fjKind{name: "native_nqueens", prepare: func() (wsrt.Func, func() error) {
		var got int64
		return wsrt.CountNQueens(queens, 3, &got), func() error {
			if got != solutions {
				return fmt.Errorf("%d-queens counted %d solutions, want %d", queens, got, solutions)
			}
			return nil
		}
	}})
	rn := 2_000_000
	if rc.Tiny {
		rn = 100_000
	}
	// Σ i² below m is (m-1)m(2m-1)/6; the product overflows int64 long
	// before the sum does.
	m := big.NewInt(int64(rn))
	prod := new(big.Int).Mul(new(big.Int).Sub(m, big.NewInt(1)), m)
	prod.Mul(prod, new(big.Int).Sub(new(big.Int).Lsh(m, 1), big.NewInt(1)))
	want := prod.Div(prod, big.NewInt(6)).Int64()
	kinds = append(kinds, fjKind{name: "native_reduce", prepare: func() (wsrt.Func, func() error) {
		var got int64
		return wsrt.ParallelReduce(rn, 4096, func(i int) int64 { return int64(i) * int64(i) }, &got), func() error {
			if got != want {
				return fmt.Errorf("sum of squares below %d is %d, want %d", rn, got, want)
			}
			return nil
		}
	}})
	return kinds, nil
}

// fjRun is one job.
type fjRun struct {
	kind, cycle int
	start, end  int64 // of the attempt that ran
	lost        int   // attempts before it whose root was lost
	sum         rtSummary
	err         error
}

// forkjoinOne runs one program to completion. A run whose root is lost
// before any worker sees it (README, "a bug this benchmark found") never
// returns; it is abandoned after runLimit, counted in lost, and the program
// is run again, so that the run that is timed is one that started.
func forkjoinOne(k fjKind, seed uint64, rec *recorder, id int64) fjRun {
	var r fjRun
	for {
		body, verify := k.prepare()
		var st stamps
		root := body
		if rec.on() {
			root = func(c *wsrt.Ctx) {
				st.first = nowNS()
				body(c)
				st.last = nowNS()
			}
		}
		// Every run starts from a collected heap, outside the timed
		// interval: otherwise a run pays for its predecessor's garbage
		// (the spread of every metric here doubles) and the resident set
		// follows the collector's pacing. The pause lets the collector's
		// workers leave the processors; starting a run in their wake loses
		// roots four times as often.
		runtime.GC()
		time.Sleep(300 * time.Microsecond)
		r.start = nowNS()
		rt, err := wsrt.New(wsrt.Config{
			Mesh:      topo.MustMesh(4, 2),
			Estimator: core.NewPalirria(),
			Policy:    "dvs",
			Quantum:   time.Millisecond,
			Seed:      seed,
		})
		if err != nil {
			r.err, r.end = err, nowNS()
			return r
		}
		made := nowNS()
		rep, err := runGuarded(rt, root)
		if errors.Is(err, errRootLost) {
			if r.lost++; r.lost < maxLost {
				continue
			}
			err = fmt.Errorf("%s: %w, %d times in a row", k.name, err, r.lost)
		}
		r.end = nowNS()
		if err != nil {
			r.err = err
			return r
		}
		r.sum = summarize(rep)
		if k.wantTasks > 0 && r.sum.tasks != k.wantTasks {
			r.err = fmt.Errorf("%s ran %d tasks, a sequential walk of its tree counts %d", k.name, r.sum.tasks, k.wantTasks)
		} else if err := verify(); err != nil {
			r.err = err
		}
		if rec.on() {
			rec.add("run", id, "", r.start, r.end)
			rec.add("wsrt.new", id, "run", r.start, made)
			rec.add("wsrt.run", id, "run", made, r.end)
			rec.add("root.body", id, "wsrt.run", st.first, st.last)
		}
		return r
	}
}

// forkjoinPhase cycles through the mix in a freshly shuffled order until
// the time is up.
func forkjoinPhase(rc *runCtx, kinds []fjKind, seconds float64, rec *recorder, stream uint64) []fjRun {
	rng := rc.rng(stream)
	deadline := nowNS() + int64(seconds*1e9)
	var runs []fjRun
	for cycle := 0; ; cycle++ {
		for _, k := range rng.Perm(len(kinds)) {
			if nowNS() >= deadline {
				return runs
			}
			r := forkjoinOne(kinds[k], rc.Seed+uint64(len(runs)), rec, int64(len(runs)))
			r.kind, r.cycle = k, cycle
			runs = append(runs, r)
		}
	}
}

// kindPct is the geometric mean over kinds of the per-kind q-quantile of
// wall ms: every program of the mix counts the same, whatever its size.
func kindPct(runs []fjRun, kinds int, q float64) (float64, int) {
	per := make([][]float64, kinds)
	for _, r := range runs {
		if r.err == nil {
			per[r.kind] = append(per[r.kind], float64(r.end-r.start)/1e6)
		}
	}
	var ps []float64
	minN := -1
	for _, xs := range per {
		ps = append(ps, percentile(xs, q))
		if minN < 0 || len(xs) < minN {
			minN = len(xs)
		}
	}
	return geomean(ps), minN
}

func runForkjoin(rc *runCtx) (*passResult, error) {
	res := newPass()
	res.Notes["loop"] = "closed, one run at a time"
	res.Notes["work_unit"] = "tasks"
	res.Notes["mesh"] = "4x2"
	res.Notes["quantum_ms"] = 1
	res.Notes["slo_ms"] = forkjoinSLO.Milliseconds()

	kinds, setups, err := setupRepeated(rc.setupReps(3), func() ([]fjKind, error) {
		kinds, err := fjKinds(rc)
		if err != nil {
			return nil, err
		}
		// One warm-up cycle: the first run of a process pays for thread
		// creation and page faults the steady state does not see.
		for i, k := range kinds {
			if r := forkjoinOne(k, rc.Seed, nil, int64(i)); r.err != nil {
				return nil, fmt.Errorf("warm-up: %w", r.err)
			}
		}
		return kinds, nil
	}, func([]fjKind) error { return nil })
	if err != nil {
		return nil, err
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	res.Notes["kinds"] = names

	seconds := rc.Seconds
	var untraced []fjRun
	var rec *recorder
	if rc.Traced {
		seconds = min(seconds, 6) / 2
		untraced = forkjoinPhase(rc, kinds, seconds, nil, 4)
		rec = &recorder{}
	}
	rss := startRSS()
	t0 := nowNS()
	runs := forkjoinPhase(rc, kinds, seconds, rec, 5)
	rssPeaks, err := rss.peaks(t0, nowNS(), forkjoinWindows)
	if err != nil {
		return nil, err
	}

	var total rtSummary
	var failed int64
	var firstErr error
	ok, lost := 0, 0
	for _, r := range append(append([]fjRun(nil), runs...), untraced...) {
		lost += r.lost
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	for _, r := range runs {
		if r.err == nil {
			total.add(r.sum)
			if r.end-r.start <= int64(forkjoinSLO) {
				ok++
			}
		}
	}
	res.check("every_run_correct", failed == 0, "%d runs failed their output check, the first: %v", failed, firstErr)
	res.Attempted = int64(len(runs) + len(untraced))
	res.Failed = failed
	res.Notes["lost_roots_retried"] = lost

	if !rc.Traced {
		res.set("setup_s", median(setups))
		res.Notes["setup_s_all"] = setups
		// Windows are groups of whole cycles, so each holds the same mix.
		cycles := 0
		if n := len(runs); n > 0 {
			cycles = runs[n-1].cycle // the last cycle may be cut short; leave it out
			if n%len(kinds) == 0 {
				cycles++
			}
		}
		windows := forkjoinWindows
		if cycles < windows {
			windows = cycles
		}
		if windows == 0 {
			return nil, fmt.Errorf("no complete cycle of %d programs within %.1f s", len(kinds), seconds)
		}
		type acc struct {
			sum  rtSummary
			wall float64
		}
		accs := make([]acc, windows)
		for _, r := range runs {
			if r.cycle >= cycles || r.err != nil {
				continue
			}
			a := &accs[r.cycle*windows/cycles]
			a.sum.add(r.sum)
			a.wall += float64(r.end-r.start) / 1e9
		}
		var rate, area, wasted []float64
		for _, a := range accs {
			rate = append(rate, ratio(float64(a.sum.tasks), a.wall))
			area = append(area, ratio(a.sum.areaWS, float64(a.sum.tasks)/1000))
			wasted = append(wasted, a.sum.wastedShare())
		}
		res.setWindows("work_per_s", rate)
		res.setWindows("worker_area_per_kwork", area)
		res.setWindows("wasted_share", wasted)
		p50, n := kindPct(runs, len(kinds), 0.5)
		p90, _ := kindPct(runs, len(kinds), 0.9)
		res.setSamples("job_p50_ms", p50, n)
		res.setSamples("job_p90_ms", p90, n)
		res.Notes["complete_cycles"] = cycles
		res.Notes["slo_ok_share"] = ratio(float64(ok), float64(len(runs)))
		res.setWindows("peak_rss_mb", rssPeaks)
		return res, nil
	}

	// Per-layer pass.
	n := float64(len(runs))
	res.set("load.sent", n)
	res.set("load.ok", n-float64(failed))
	res.set("load.errored", float64(failed))
	res.set("load.failed_share", ratio(float64(failed), n))
	res.set("load.slo_ok_share", ratio(float64(ok), n))
	on, _ := kindPct(runs, len(kinds), 0.5)
	off, _ := kindPct(untraced, len(kinds), 0.5)
	res.set("load.trace_overhead_pct", pctDelta(on, off))
	var walls []float64
	for _, r := range runs {
		walls = append(walls, float64(r.end-r.start)/1e6)
	}
	res.setSamples("load.job_p99_ms", percentile(walls, 0.99), len(walls))
	setBudget(res, selfTimes(rec.spans, "run", func(job int64) bool { return kinds[runs[job].kind].name == budgetKind }))
	res.Notes["budget_over"] = budgetKind + " runs"
	setRuntimeCounters(res, total)
	res.set("wsrt.lost_roots", float64(lost))
	path, err := writeTrace(rc.OutDir, forkjoinInfo.Name, rec.spans, maxTraceSpans)
	if err != nil {
		return nil, err
	}
	res.Notes["trace_file"] = path
	return res, nil
}
