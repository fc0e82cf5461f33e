package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/obs"
	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// serve_waves: open loop, in-process serve.Pool.SubmitJob. Each window is
// one calm → burst → calm cycle, so every window carries the same traffic.
// It is the paper's claim in serving form: latency in the burst against
// worker area in the calm.

// warmFor is the warm-up of an in-process pool.
const warmFor = 200 * time.Millisecond

const (
	wavesSLO       = 10 * time.Millisecond
	wavesCalmRate  = 300
	wavesBurstRate = 2000
	wavesWindows   = 5
	burstPhase     = 1 // index into wavesPhases
)

// wavesPhases splits one window of the given length 40/40/20.
func wavesPhases(window float64) []phase {
	return []phase{
		{"calm", wavesCalmRate, 0.4 * window},
		{"burst", wavesBurstRate, 0.4 * window},
		{"calm", wavesCalmRate, 0.2 * window},
	}
}

var wavesInfo = workloadInfo{
	Name: "serve_waves",
	Why:  "open-loop calm/burst waves into an in-process serve.Pool: admission, shard pick, park/wake and allotment grow/shrink dominate, stealing is light",
}

// benchPool is the serving pool both in-process serving workloads use: the
// fixed 4x2 mesh (zone series 3/5/7/8, so the estimator has room to move),
// quantum 2 ms, and queue caps far above anything the stated rates reach,
// so a refusal is a finding and not a tuning accident.
//
// The registry is how the benchmark reads the runtime's park and wakeup
// counters from outside; registering them adds nothing to a hot path.
type benchPool struct {
	*serve.Pool
	reg *obs.Registry
}

func inProcessPool(name string, seed uint64) (*benchPool, error) {
	reg := obs.NewRegistry()
	p, err := serve.New(serve.Config{
		Name: name,
		Runtime: wsrt.Config{
			Mesh:           topo.MustMesh(4, 2),
			Quantum:        2 * time.Millisecond,
			SubmitQueueCap: 8192,
			Seed:           seed,
			Metrics:        reg,
		},
		QueueCap: 8192,
	})
	if err != nil {
		return nil, err
	}
	return &benchPool{p, reg}, nil
}

// setIdleCounters reports the pool runtime's park and wakeup totals.
func (p *benchPool) setIdleCounters(res *passResult) error {
	sums, err := registrySums(p.reg)
	if err != nil {
		return err
	}
	res.set("wsrt.parks", sums["palirria_parks_total"])
	res.set("wsrt.wakeups", sums["palirria_wakeups_total"])
	return nil
}

// warmPool keeps the pool busy with reference jobs from four closed-loop
// clients for the given time, so that the runtime's lazily built state (Ctx
// free lists, policy tables for the zones a burst reaches) exists before
// anything is timed. The warm-up is a length of time, not a number of jobs:
// the same 2000 jobs took 0.19 s or 0.30 s depending on which way the
// park/wake path settled in that process, and a set-up time with two modes
// cannot carry a bound.
func warmPool(p *benchPool, d time.Duration) error {
	const clients = 4
	var leaves, jobs atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	deadline := nowNS() + int64(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nowNS() < deadline {
				if err := p.SubmitJob(context.Background(), serve.Job{Fn: fanJob(refFanout, refWork, &leaves, nil)}); err != nil {
					errs <- err
					return
				}
				jobs.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if got, want := leaves.Load(), jobs.Load()*refFanout; got != want {
		return fmt.Errorf("warm-up: %d leaves ran, want %d", got, want)
	}
	return nil
}

func drainPool(p *benchPool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return p.Drain(ctx)
}

// jobRec is what the generator knows about one job afterwards. Each job
// writes only its own record.
type jobRec struct {
	due, sent, ret int64
	st             stamps
	err            error
}

type wavesJob struct {
	fanout int
	work   int64
	class  serve.Class
	kind   int // which (fanout, work) pair: latencies are compared within a kind
}

var (
	wavesFanouts = []int{4, 8, 16}
	wavesWorks   = []int64{5000, 10000, 20000}
)

func runWaves(rc *runCtx) (*passResult, error) {
	res := newPass()
	window := rc.Seconds / wavesWindows
	if rc.Traced {
		window = min(rc.Seconds, 6) / wavesWindows
	}
	phases := wavesPhases(window)
	arrivals := schedule(phases, wavesWindows)
	rng := rc.rng(1)
	jobs := make([]wavesJob, len(arrivals))
	var wantLeaves int64
	for i := range jobs {
		f, w := rng.Intn(len(wavesFanouts)), rng.Intn(len(wavesWorks))
		j := wavesJob{fanout: wavesFanouts[f], work: wavesWorks[w], kind: f*len(wavesWorks) + w}
		switch r := rng.Intn(10); {
		case r < 7:
			j.class = serve.ClassLow
		case r < 9:
			j.class = serve.ClassNormal
		default:
			j.class = serve.ClassHigh
		}
		jobs[i] = j
		wantLeaves += int64(j.fanout)
	}
	res.Notes["loop"] = "open"
	res.Notes["work_unit"] = "jobs"
	res.Notes["mesh"] = "4x2"
	res.Notes["quantum_ms"] = 2
	res.Notes["phases_per_window"] = phases
	res.Notes["windows"] = wavesWindows
	res.Notes["slo_ms"] = wavesSLO.Milliseconds()

	warm := warmFor
	if rc.Tiny {
		warm = 10 * time.Millisecond
	}
	pool, setups, err := setupRepeated(rc.setupReps(5), func() (*benchPool, error) {
		p, err := inProcessPool("waves", rc.Seed)
		if err != nil {
			return nil, err
		}
		return p, warmPool(p, warm)
	}, drainPool)
	if err != nil {
		return nil, err
	}

	var rec *recorder
	if rc.Traced {
		rec = &recorder{}
	}
	// The traced pass also needs the untraced numbers from the same pool
	// to say what tracing costs; it runs the schedule twice.
	var untraced *wavesRun
	if rc.Traced {
		untraced = wavesOnce(pool, arrivals, jobs, nil)
	}
	var peak poolPeaks
	stopSampler := func() {}
	if rc.Traced {
		stopSampler = samplePool(pool.Pool, &peak)
	}
	rss := startRSS()
	t0 := nowNS()
	run := wavesOnce(pool, arrivals, jobs, rec)
	rssPeaks, err := rss.peaks(t0, nowNS(), wavesWindows)
	if err != nil {
		return nil, err
	}
	stopSampler()

	if err := drainPool(pool); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	final := pool.Final()
	stats := pool.Stats()

	leaves := run.leaves
	want := wantLeaves
	if untraced != nil {
		leaves += untraced.leaves
		want *= 2
	}
	res.check("leaves_run_eq_sum_fanout", leaves == want, "%d leaves ran, want %d", leaves, want)
	res.check("admitted_eq_completed_plus_cancelled", stats.Admitted == stats.Completed+stats.Cancelled,
		"admitted %d, completed %d, cancelled %d", stats.Admitted, stats.Completed, stats.Cancelled)
	res.check("no_job_failed", run.failed == 0, "%d of %d jobs failed or were refused", run.failed, len(arrivals))
	res.Attempted = int64(len(arrivals))
	res.Failed = run.failed
	res.Valid = run.latePct(0.9) <= 1

	rt := summarize(final)
	if !rc.Traced {
		res.set("setup_s", median(setups))
		res.Notes["setup_s_all"] = setups
		res.setWindows("work_per_s", run.perWindow(run.rate))
		res.setWindows("job_p50_ms", run.perWindow(func(w []int) float64 { return run.latency(w, burstPhase, 0.5) }))
		res.setWindows("job_p90_ms", run.perWindow(func(w []int) float64 { return run.latency(w, burstPhase, 0.9) }))
		res.Notes["burst_samples_per_window"] = int(wavesBurstRate * phases[burstPhase].Length)
		res.set("worker_area_per_kwork", ratio(rt.areaWS, float64(stats.Completed)/1000))
		res.set("wasted_share", rt.wastedShare())
		res.setWindows("peak_rss_mb", rssPeaks)
		res.Notes["slo_ok_share"] = run.sloShare(wavesSLO)
		res.Notes["late_p90_ms"] = run.latePct(0.9)
		return res, nil
	}

	// Per-layer pass.
	run.loadMetrics(res, wavesSLO)
	res.set("load.calm_p50_ms", run.latencyAll(0, 0.5))
	res.set("load.backlog_end", float64(run.backlogEnd))
	res.set("load.trace_overhead_pct", pctDelta(run.latencyAll(burstPhase, 0.5), untraced.latencyAll(burstPhase, 0.5)))
	// The budget is the reference job's: fan(8, 10000).
	b := selfTimes(rec.spans, "job", func(job int64) bool {
		return jobs[job].fanout == refFanout && jobs[job].work == refWork
	})
	res.Notes["budget_over"] = "reference jobs fan(8, 10000)"
	setBudget(res, b)
	res.setSamples("serve.submit_to_start_p50_us", spanPct(rec.spans, "serve.submit_to_start", 0.5), len(arrivals))
	res.setSamples("serve.submit_to_start_p90_us", spanPct(rec.spans, "serve.submit_to_start", 0.9), len(arrivals))
	res.setSamples("serve.run_p50_us", spanPct(rec.spans, "job.run", 0.5), len(arrivals))
	res.setSamples("serve.done_to_return_p50_us", spanPct(rec.spans, "serve.done_to_return", 0.5), len(arrivals))
	setPoolCounters(res, stats, peak)
	setRuntimeCounters(res, rt)
	if err := pool.setIdleCounters(res); err != nil {
		return nil, err
	}
	path, err := writeTrace(rc.OutDir, wavesInfo.Name, rec.spans, maxTraceSpans)
	if err != nil {
		return nil, err
	}
	res.Notes["trace_file"] = path
	return res, nil
}

// wavesRun is one execution of the schedule.
type wavesRun struct {
	arrivals   []arrival
	jobs       []wavesJob
	recs       []jobRec
	leaves     int64
	failed     int64
	backlogEnd int64
}

func wavesOnce(pool *benchPool, arrivals []arrival, jobs []wavesJob, rec *recorder) *wavesRun {
	run := &wavesRun{arrivals: arrivals, jobs: jobs, recs: make([]jobRec, len(arrivals))}
	due := make([]int64, len(arrivals))
	for i, a := range arrivals {
		due[i] = a.due
	}
	var leaves atomic.Int64
	last := len(arrivals) - 1
	ol := realOpenLoop()
	ol.run(nowNS(), due, 0, func(i int, dueAbs, sent int64) {
		r := &run.recs[i]
		r.due, r.sent = dueAbs, sent
		var st *stamps
		if rec.on() {
			st = &r.st
		}
		j := jobs[i]
		r.err = pool.SubmitJob(context.Background(), serve.Job{Fn: fanJob(j.fanout, j.work, &leaves, st), Class: j.class})
		r.ret = nowNS()
		if i == last {
			run.backlogEnd = pool.Stats().InFlight
		}
		if rec.on() && r.err == nil {
			id := int64(i)
			rec.add("job", id, "", r.due, r.ret)
			rec.add("load.wait", id, "job", r.due, r.sent)
			rec.add("serve.submit_to_start", id, "job", r.sent, r.st.first)
			rec.add("job.run", id, "job", r.st.first, r.st.last)
			rec.add("serve.done_to_return", id, "job", r.st.last, r.ret)
		}
	})
	run.leaves = leaves.Load()
	for i := range run.recs {
		if run.recs[i].err != nil {
			run.failed++
		}
	}
	return run
}

// perWindow evaluates f over the job indices of each window.
func (r *wavesRun) perWindow(f func(idx []int) float64) []float64 {
	var byWin [][]int
	for i, a := range r.arrivals {
		for len(byWin) <= a.window {
			byWin = append(byWin, nil)
		}
		byWin[a.window] = append(byWin[a.window], i)
	}
	out := make([]float64, len(byWin))
	for w, idx := range byWin {
		out[w] = f(idx)
	}
	return out
}

// rate is the jobs completed per second of the wall time the window's
// jobs took, from the first one due to the last one back: a backlog that
// outlives its window lowers it.
func (r *wavesRun) rate(idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	n := 0
	first, last := r.recs[idx[0]].due, int64(0)
	for _, i := range idx {
		if r.recs[i].err == nil {
			n++
		}
		last = max(last, r.recs[i].ret)
	}
	return ratio(float64(n), float64(last-first)/1e9)
}

// latency is the geometric mean over job kinds of the per-kind q-quantile,
// in ms from the due time, of the completed jobs of one phase among idx
// (phase < 0: every phase). The nine kinds differ eightfold in size; a
// quantile of the pooled mix would sit on whichever kind straddles it and
// jump between kinds from run to run.
func (r *wavesRun) latency(idx []int, ph int, q float64) float64 {
	per := make([][]float64, len(wavesFanouts)*len(wavesWorks))
	for _, i := range idx {
		if (ph < 0 || r.arrivals[i].phase == ph) && r.recs[i].err == nil {
			k := r.jobs[i].kind
			per[k] = append(per[k], float64(r.recs[i].ret-r.recs[i].due)/1e6)
		}
	}
	ps := make([]float64, len(per))
	for k, xs := range per {
		ps[k] = percentile(xs, q)
	}
	return geomean(ps)
}

func (r *wavesRun) all() []int {
	idx := make([]int, len(r.recs))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func (r *wavesRun) latencyAll(ph int, q float64) float64 { return r.latency(r.all(), ph, q) }

// latePct is the q-quantile of the generator's lateness, sent minus due,
// in ms.
func (r *wavesRun) latePct(q float64) float64 {
	xs := make([]float64, len(r.recs))
	for i := range r.recs {
		xs[i] = float64(r.recs[i].sent-r.recs[i].due) / 1e6
	}
	return percentile(xs, q)
}

// sloShare is the share of jobs sent that completed within limit of their
// due time; refused and failed jobs count as misses.
func (r *wavesRun) sloShare(limit time.Duration) float64 {
	ok := 0
	for i := range r.recs {
		if r.recs[i].err == nil && r.recs[i].ret-r.recs[i].due <= int64(limit) {
			ok++
		}
	}
	return ratio(float64(ok), float64(len(r.recs)))
}

// loadMetrics fills the generator-health metrics every open- or
// closed-loop serving workload shares.
func (r *wavesRun) loadMetrics(res *passResult, slo time.Duration) {
	var refused, errored int64
	for i := range r.recs {
		switch err := r.recs[i].err; {
		case err == nil:
		case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrDeadline):
			refused++
		default:
			errored++
		}
	}
	n := int64(len(r.recs))
	res.set("load.sent", float64(n))
	res.set("load.ok", float64(n-refused-errored))
	res.set("load.refused", float64(refused))
	res.set("load.errored", float64(errored))
	res.set("load.failed_share", ratio(float64(refused+errored), float64(n)))
	res.set("load.slo_ok_share", r.sloShare(slo))
	res.set("load.late_p90_ms", r.latePct(0.9))
	res.set("load.late_max_ms", r.latePct(1))
	res.setSamples("load.job_p99_ms", r.latencyAll(-1, 0.99), len(r.recs))
}
