package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/workload"
	"palirria/internal/wsrt"
)

// wsrtBenchReport is the machine-readable output of -wsrt: the idle-path
// health metrics the CI benchmark gate tracks across commits. All
// durations are nanoseconds.
type wsrtBenchReport struct {
	// SubmitToStart quantifies the latency from Submit returning to the
	// job body executing, sampled with the runtime idle (workers parked)
	// before every submission.
	SubmitToStart struct {
		Trials int   `json:"trials"`
		P50NS  int64 `json:"p50_ns"`
		P90NS  int64 `json:"p90_ns"`
		P99NS  int64 `json:"p99_ns"`
	} `json:"submit_to_start"`
	// StealThroughput is achieved steals per second of wall time over a
	// wide fan-out batch run.
	StealThroughput struct {
		Steals       int64   `json:"steals"`
		WallNS       int64   `json:"wall_ns"`
		StealsPerSec float64 `json:"steals_per_sec"`
	} `json:"steal_throughput"`
	// IdleBurn is search and parked time accumulated across all workers
	// of an idle persistent runtime, normalized per wall-clock second.
	// SearchNSPerSec near zero means the workers genuinely park.
	IdleBurn struct {
		WindowNS       int64   `json:"window_ns"`
		Workers        int     `json:"workers"`
		SearchNSPerSec float64 `json:"search_ns_per_sec"`
		IdleNSPerSec   float64 `json:"idle_ns_per_sec"`
		Parks          int64   `json:"parks"`
	} `json:"idle_burn"`
	// SubmitThroughput is the multi-producer scaling curve for the sharded
	// injection path: contending producers pumping trivial jobs through
	// Submit, one tier per producer count. The CI gate compares tiers
	// against the committed baseline and fails on a >2x throughput drop.
	SubmitThroughput []submitThroughputTier `json:"submit_throughput"`
	// DAGWorkloads drives the registered structured-job workloads through
	// serve.Pool.SubmitDAG — dependency release riding the terminal-event
	// hook — and reports the estimator's view of each graph storm. The
	// field is additive: baselines written before it exist gate nothing.
	DAGWorkloads []dagWorkloadTier `json:"dag_workloads,omitempty"`
}

// dagWorkloadTier is one DAG workload's storm: Graphs whole graphs of
// Nodes nodes each pushed through SubmitDAG by a few producers. Peak
// desire and allotment are sampled while the storm runs, so the tier
// shows the estimation loop reacting to dependency-released work rather
// than flat submit pressure. When the tier ran more than once the
// reported numbers are the median repetition by nodes/sec.
type dagWorkloadTier struct {
	Workload           string    `json:"workload"`
	Graphs             int       `json:"graphs"`
	Nodes              int       `json:"nodes"` // per graph
	WallNS             int64     `json:"wall_ns"`
	NodesPerSec        float64   `json:"nodes_per_sec"`
	PeakDesire         int       `json:"peak_desire"`
	PeakAllotment      int       `json:"peak_allotment"`
	Capacity           int       `json:"capacity"`
	SamplesNodesPerSec []float64 `json:"samples_nodes_per_sec,omitempty"`
}

// submitThroughputTier is one producer-count point on the scaling curve.
// Latencies are submit-return to job-body-start, in nanoseconds, taken
// from a 1-in-8 sample of the jobs (timing every job costs two clock
// reads plus a closure allocation per job and makes the tier measure the
// harness instead of the runtime). When the tier ran more than once
// (-bench-count), the reported numbers are the median repetition by
// jobs/sec and SamplesJobsPerSec lists every repetition.
type submitThroughputTier struct {
	Producers         int       `json:"producers"`
	Jobs              int       `json:"jobs"`
	WallNS            int64     `json:"wall_ns"`
	JobsPerSec        float64   `json:"jobs_per_sec"`
	P50NS             int64     `json:"p50_ns"`
	P99NS             int64     `json:"p99_ns"`
	LatSamples        int       `json:"lat_samples,omitempty"`
	SamplesJobsPerSec []float64 `json:"samples_jobs_per_sec,omitempty"`
}

// wsrtBench measures the real runtime's idle-path metrics and writes them
// as JSON to path (the CI artifact BENCH_wsrt.json). When baseline names a
// committed report, the multi-producer throughput tiers are gated against
// it: a tier running at less than half the baseline's jobs/sec fails the
// run. The factor-of-two slack absorbs shared-runner noise while still
// catching a serialized submit path (which collapses by far more).
// count repeats each throughput tier and reports the median repetition,
// so the gate compares medians, not single lucky or unlucky runs.
func wsrtBench(path, baseline string, count int) error {
	var rep wsrtBenchReport
	if err := benchSubmitToStart(&rep); err != nil {
		return err
	}
	if err := benchStealThroughput(&rep); err != nil {
		return err
	}
	if err := benchIdleBurn(&rep); err != nil {
		return err
	}
	if err := benchSubmitThroughput(&rep, count); err != nil {
		return err
	}
	if err := benchDAGWorkloads(&rep, count); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wsrt idle-path benchmarks -> %s\n", path)
	fmt.Printf("  submit-to-start: p50=%s p90=%s p99=%s (%d trials)\n",
		time.Duration(rep.SubmitToStart.P50NS), time.Duration(rep.SubmitToStart.P90NS),
		time.Duration(rep.SubmitToStart.P99NS), rep.SubmitToStart.Trials)
	fmt.Printf("  steal throughput: %.0f steals/sec (%d steals over %s)\n",
		rep.StealThroughput.StealsPerSec, rep.StealThroughput.Steals,
		time.Duration(rep.StealThroughput.WallNS))
	fmt.Printf("  idle burn: search %.0f ns/sec, parked %.2e ns/sec, %d parks over %s x %d workers\n",
		rep.IdleBurn.SearchNSPerSec, rep.IdleBurn.IdleNSPerSec, rep.IdleBurn.Parks,
		time.Duration(rep.IdleBurn.WindowNS), rep.IdleBurn.Workers)
	for _, tier := range rep.SubmitThroughput {
		fmt.Printf("  submit throughput: %2d producers -> %.0f jobs/sec (p50=%s p99=%s)\n",
			tier.Producers, tier.JobsPerSec, time.Duration(tier.P50NS), time.Duration(tier.P99NS))
	}
	for _, tier := range rep.DAGWorkloads {
		fmt.Printf("  dag workload [%9s]: %.0f nodes/sec over %d graphs x %d nodes, peak desire=%d allot=%d cap=%d\n",
			tier.Workload, tier.NodesPerSec, tier.Graphs, tier.Nodes,
			tier.PeakDesire, tier.PeakAllotment, tier.Capacity)
	}
	if baseline != "" {
		if err := checkBenchBaseline(&rep, baseline); err != nil {
			return err
		}
		fmt.Printf("  baseline gate: within 2x of %s\n", baseline)
	}
	return nil
}

// checkBenchBaseline compares the fresh report's throughput tiers against
// the committed baseline, matching tiers by producer count.
func checkBenchBaseline(rep *wsrtBenchReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var old wsrtBenchReport
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("bench baseline %s: %w", path, err)
	}
	byProducers := make(map[int]submitThroughputTier, len(old.SubmitThroughput))
	for _, tier := range old.SubmitThroughput {
		byProducers[tier.Producers] = tier
	}
	for _, tier := range rep.SubmitThroughput {
		ref, ok := byProducers[tier.Producers]
		if !ok || ref.JobsPerSec <= 0 {
			continue
		}
		if tier.JobsPerSec*2 < ref.JobsPerSec {
			return fmt.Errorf("bench baseline: %d-producer submit throughput regressed >2x: %.0f jobs/sec vs baseline %.0f",
				tier.Producers, tier.JobsPerSec, ref.JobsPerSec)
		}
	}
	// DAG tiers match by workload name; a baseline committed before the
	// tier existed simply has no entry and gates nothing.
	byWorkload := make(map[string]dagWorkloadTier, len(old.DAGWorkloads))
	for _, tier := range old.DAGWorkloads {
		byWorkload[tier.Workload] = tier
	}
	for _, tier := range rep.DAGWorkloads {
		ref, ok := byWorkload[tier.Workload]
		if !ok || ref.NodesPerSec <= 0 {
			continue
		}
		if tier.NodesPerSec*2 < ref.NodesPerSec {
			return fmt.Errorf("bench baseline: %s DAG tier regressed >2x: %.0f nodes/sec vs baseline %.0f",
				tier.Workload, tier.NodesPerSec, ref.NodesPerSec)
		}
	}
	return nil
}

func benchSubmitToStart(rep *wsrtBenchReport) error {
	rt, err := wsrt.New(wsrt.Config{
		Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	const trials = 101
	started := make(chan int64)
	lat := make([]int64, 0, trials)
	for i := 0; i < trials; i++ {
		time.Sleep(2 * time.Millisecond) // let every worker park
		t0 := time.Now().UnixNano()
		if err := rt.Submit(func(*wsrt.Ctx) { started <- time.Now().UnixNano() }, nil); err != nil {
			return err
		}
		lat = append(lat, <-started-t0)
	}
	if _, err := rt.Shutdown(); err != nil {
		return err
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) int64 { return lat[int(p*float64(trials-1))] }
	rep.SubmitToStart.Trials = trials
	rep.SubmitToStart.P50NS = q(0.50)
	rep.SubmitToStart.P90NS = q(0.90)
	rep.SubmitToStart.P99NS = q(0.99)
	return nil
}

func benchStealThroughput(rep *wsrtBenchReport) error {
	rt, err := wsrt.New(wsrt.Config{
		Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10,
	})
	if err != nil {
		return err
	}
	r, err := rt.Run(func(c *wsrt.Ctx) {
		for j := 0; j < 512; j++ {
			c.Spawn(func(cc *wsrt.Ctx) { cc.Compute(20_000) })
		}
		c.SyncAll()
	})
	if err != nil {
		return err
	}
	var steals int64
	for _, w := range r.Workers {
		steals += w.Steals
	}
	rep.StealThroughput.Steals = steals
	rep.StealThroughput.WallNS = r.WallNS
	if r.WallNS > 0 {
		rep.StealThroughput.StealsPerSec = float64(steals) / (float64(r.WallNS) / 1e9)
	}
	return nil
}

// benchSubmitThroughput sweeps producer counts over the sharded injection
// path. Every producer hammers Submit with trivial jobs (retrying on a
// full backlog), so the tiers expose any serialization in shard selection
// or wakeup — with the legacy single channel the curve flatlines as
// producers contend on one funnel. Each tier runs count times and the
// median repetition (by jobs/sec) is reported; the per-rep rates ride
// along in the artifact so a flaky runner is visible in the numbers.
func benchSubmitThroughput(rep *wsrtBenchReport, count int) error {
	if count < 1 {
		count = 1
	}
	for _, producers := range []int{1, 4, 16, 64} {
		reps := make([]submitThroughputTier, 0, count)
		for i := 0; i < count; i++ {
			tier, err := benchSubmitTier(producers, 8000)
			if err != nil {
				return err
			}
			reps = append(reps, tier)
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].JobsPerSec < reps[j].JobsPerSec })
		tier := reps[len(reps)/2]
		if count > 1 {
			tier.SamplesJobsPerSec = make([]float64, 0, count)
			for _, r := range reps {
				tier.SamplesJobsPerSec = append(tier.SamplesJobsPerSec, r.JobsPerSec)
			}
		}
		rep.SubmitThroughput = append(rep.SubmitThroughput, tier)
	}
	return nil
}

// latStride is the latency sampling rate of a throughput tier: one job
// in latStride measures submit-to-start latency, the rest share a single
// hoisted body/onDone closure pair and pay no clock reads at all.
const latStride = 8

func benchSubmitTier(producers, jobs int) (submitThroughputTier, error) {
	tier := submitThroughputTier{Producers: producers, Jobs: jobs}
	rt, err := wsrt.New(wsrt.Config{
		Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10,
		SubmitQueueCap: 512,
	})
	if err != nil {
		return tier, err
	}
	if err := rt.Start(); err != nil {
		return tier, err
	}
	// Each producer owns a fixed row of latency slots; a sampled job
	// writes its own slot from the worker side, so no two goroutines
	// ever touch the same element.
	perProducer := jobs/producers + 1
	maxSamples := perProducer/latStride + 1
	lats := make([][]int64, producers)
	taken := make([]int, producers)
	for p := range lats {
		lats[p] = make([]int64, maxSamples)
	}
	var done sync.WaitGroup
	var submitErr atomic.Value
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		mine := (jobs - 1 - p) / producers // jobs this producer owns beyond the first
		done.Add(mine + 1)
		go func(p, mine int) {
			defer wg.Done()
			// Hoisted: every unsampled job submits these same two values and
			// the completion count was added up front, so the steady-state
			// producer loop allocates nothing and runs no atomics of its own.
			body := func(*wsrt.Ctx) {}
			onDone := func() { done.Done() }
			row := lats[p]
			n, k := 0, 0
			for j := p; j < jobs; j += producers {
				fn := body
				if n++; n%latStride == 0 && k < len(row) {
					slot, s0 := &row[k], time.Now().UnixNano()
					fn = func(*wsrt.Ctx) { *slot = time.Now().UnixNano() - s0 }
					k++
				}
				for {
					err := rt.Submit(fn, onDone)
					if err == nil {
						break
					}
					if errors.Is(err, wsrt.ErrSubmitQueueFull) {
						runtime.Gosched()
						continue
					}
					submitErr.Store(err)
					// Give back the completions this producer will never
					// submit: n-1 jobs made it in, mine+1 were pre-added.
					done.Add(-(mine + 2 - n))
					taken[p] = k
					return
				}
			}
			taken[p] = k
		}(p, mine)
	}
	wg.Wait()
	done.Wait()
	tier.WallNS = time.Since(t0).Nanoseconds()
	if _, err := rt.Shutdown(); err != nil {
		return tier, err
	}
	if err, ok := submitErr.Load().(error); ok {
		return tier, err
	}
	if tier.WallNS > 0 {
		tier.JobsPerSec = float64(jobs) / (float64(tier.WallNS) / 1e9)
	}
	var lat []int64
	for p, row := range lats {
		lat = append(lat, row[:taken[p]]...)
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		tier.LatSamples = len(lat)
		tier.P50NS = lat[len(lat)/2]
		tier.P99NS = lat[(len(lat)-1)*99/100]
	}
	return tier, nil
}

// benchDAGWorkloads storms each registered DAG workload through a
// serving pool: several producers each submit whole graphs with
// SubmitDAG, so the runtime sees work arrive in dependency-released
// ripples instead of a flat stream. A sampler polls the pool's stats
// while the storm runs and keeps the peak desire and allotment the
// estimator reported — the numbers that show Palirria's estimation loop
// tracking structured parallelism. Each workload repeats count times and
// the median repetition by nodes/sec is reported.
func benchDAGWorkloads(rep *wsrtBenchReport, count int) error {
	if count < 1 {
		count = 1
	}
	for _, name := range []string{"pipeline", "mapreduce"} {
		reps := make([]dagWorkloadTier, 0, count)
		for i := 0; i < count; i++ {
			tier, err := benchDAGTier(name)
			if err != nil {
				return err
			}
			reps = append(reps, tier)
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].NodesPerSec < reps[j].NodesPerSec })
		tier := reps[len(reps)/2]
		if count > 1 {
			tier.SamplesNodesPerSec = make([]float64, 0, count)
			for _, r := range reps {
				tier.SamplesNodesPerSec = append(tier.SamplesNodesPerSec, r.NodesPerSec)
			}
		}
		rep.DAGWorkloads = append(rep.DAGWorkloads, tier)
	}
	return nil
}

func benchDAGTier(name string) (dagWorkloadTier, error) {
	const (
		graphs    = 24
		producers = 4
	)
	def, err := workload.GetDAG(name)
	if err != nil {
		return dagWorkloadTier{}, err
	}
	stages := def.Stages(workload.Simulator)
	tier := dagWorkloadTier{Workload: name, Graphs: graphs, Nodes: len(stages)}
	// The pool queue holds every concurrently-admitted node (DAG nodes
	// keep their slot until they resolve); the runtime's submit ring is
	// sized past it so dependency-released successors never bounce.
	p, err := serve.New(serve.Config{
		Name: "bench-" + name,
		Runtime: wsrt.Config{
			Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10,
			SubmitQueueCap: 1024,
		},
		QueueCap: graphs * len(stages),
	})
	if err != nil {
		return tier, err
	}
	// Sample the estimator while the storm runs: desire and allotment
	// both decay once the graphs drain, so end-of-run stats alone would
	// under-report the loop's reaction.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		t := time.NewTicker(500 * time.Microsecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st := p.Stats()
				if st.Desire > tier.PeakDesire {
					tier.PeakDesire = st.Desire
				}
				if st.Allotment > tier.PeakAllotment {
					tier.PeakAllotment = st.Allotment
				}
			}
		}
	}()
	var submitErr atomic.Value
	t0 := time.Now()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for g := pr; g < graphs; g += producers {
				nodes := make([]serve.DAGNode, len(stages))
				for i, st := range stages {
					nodes[i] = serve.DAGNode{Fn: wsrt.SpecFunc(st.Build()), Deps: st.Deps}
				}
				errs, err := p.SubmitDAG(context.Background(), nodes)
				if err != nil {
					submitErr.Store(err)
					return
				}
				for _, e := range errs {
					if e != nil {
						submitErr.Store(e)
						return
					}
				}
			}
		}(pr)
	}
	wg.Wait()
	tier.WallNS = time.Since(t0).Nanoseconds()
	close(stop)
	sampler.Wait()
	tier.Capacity = p.Capacity()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = p.Drain(ctx)
	cancel()
	if err != nil {
		return tier, err
	}
	if err, ok := submitErr.Load().(error); ok {
		return tier, fmt.Errorf("dag tier %s: %w", name, err)
	}
	if tier.WallNS > 0 {
		tier.NodesPerSec = float64(graphs*len(stages)) / (float64(tier.WallNS) / 1e9)
	}
	return tier, nil
}

func benchIdleBurn(rep *wsrtBenchReport) error {
	rt, err := wsrt.New(wsrt.Config{
		Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10,
	})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	// Prime the steal path once, then hold the runtime idle.
	done := make(chan struct{})
	var ran atomic.Bool
	if err := rt.Submit(func(c *wsrt.Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn(func(cc *wsrt.Ctx) { cc.Compute(20_000) })
		}
		c.SyncAll()
		ran.Store(true)
	}, func() { close(done) }); err != nil {
		return err
	}
	<-done
	time.Sleep(2 * time.Millisecond) // drain the post-job spin budget
	const window = 300 * time.Millisecond
	t0 := time.Now().UnixNano()
	time.Sleep(window)
	wall := time.Now().UnixNano() - t0
	parks, _ := rt.IdleStats()
	r, err := rt.Shutdown()
	if err != nil {
		return err
	}
	var search, idle int64
	for _, w := range r.Workers {
		search += w.SearchNS
		idle += w.IdleNS
	}
	// Search/idle totals include the priming job's run-up; over a 300ms
	// window the idle phase dominates and the run-up is noise. The gate
	// watches the order of magnitude, not the last nanosecond.
	rep.IdleBurn.WindowNS = wall
	rep.IdleBurn.Workers = len(r.Workers)
	rep.IdleBurn.Parks = parks
	rep.IdleBurn.SearchNSPerSec = float64(search) / (float64(wall) / 1e9)
	rep.IdleBurn.IdleNSPerSec = float64(idle) / (float64(wall) / 1e9)
	return nil
}
