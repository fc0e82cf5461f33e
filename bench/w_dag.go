package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/serve"
)

// serve_dag: closed loop, nproc clients each submitting graphs
// back-to-back through serve.Pool.SubmitDAG. Same serve and wsrt layers as
// serve_waves, used differently: all-or-nothing admission, successors
// released from worker callbacks, many tiny roots.

var dagInfo = workloadInfo{
	Name: "serve_dag",
	Why:  "closed-loop pipeline and map/reduce graphs through SubmitDAG: all-or-nothing admission and release-on-terminal, where a submit-path gain can cost the DAG ledger",
}

const (
	dagSLO     = 50 * time.Millisecond
	dagWindows = 5
)

// dagShape is one kind of graph: deps[i] lists node i's predecessors.
type dagShape struct {
	name string
	deps [][]int
}

// pipelineShape is a chain of stages, every node of a stage waiting for
// every node of the stage before it.
func pipelineShape(stages, width int) dagShape {
	s := dagShape{name: "pipeline"}
	for st := 0; st < stages; st++ {
		for w := 0; w < width; w++ {
			var deps []int
			if st > 0 {
				for p := 0; p < width; p++ {
					deps = append(deps, (st-1)*width+p)
				}
			}
			s.deps = append(s.deps, deps)
		}
	}
	return s
}

// mapReduceShape is one splitter, fan mappers, one reducer.
func mapReduceShape(fan int) dagShape {
	s := dagShape{name: "mapreduce", deps: [][]int{nil}}
	var all []int
	for m := 1; m <= fan; m++ {
		s.deps = append(s.deps, []int{0})
		all = append(all, m)
	}
	s.deps = append(s.deps, all)
	return s
}

var dagShapes = []dagShape{pipelineShape(6, 8), mapReduceShape(16)}

// graphRec is what a client knows about one graph afterwards.
type graphRec struct {
	shape      int
	start, ret int64
	ok         bool
	nodes      []stamps // traced passes only
}

type dagRun struct {
	graphs []graphRec // in completion order per client, concatenated
	leaves int64
	t0, t1 int64
}

func runDAG(rc *runCtx) (*passResult, error) {
	res := newPass()
	clients := runtime.NumCPU()
	seconds := rc.Seconds
	if rc.Traced {
		seconds = min(seconds, 6) / 2 // an untraced and a traced half
	}
	res.Notes["loop"] = fmt.Sprintf("closed, %d clients", clients)
	res.Notes["work_unit"] = "DAG nodes"
	res.Notes["mesh"] = "4x2"
	res.Notes["quantum_ms"] = 2
	res.Notes["shapes"] = "pipeline 6 stages x 8 nodes (48), mapreduce 1-16-1 (18); node body = one reference leaf"
	res.Notes["slo_ms"] = dagSLO.Milliseconds()
	res.Notes["windows"] = dagWindows

	warm := warmFor
	if rc.Tiny {
		warm = 10 * time.Millisecond
	}
	pool, setups, err := setupRepeated(rc.setupReps(5), func() (*benchPool, error) {
		p, err := inProcessPool("dag", rc.Seed)
		if err != nil {
			return nil, err
		}
		if err := warmPool(p, warm); err != nil {
			return nil, err
		}
		// One graph of each shape, so the first timed graph does not pay
		// for the ledger's first allocation.
		for s := range dagShapes {
			var leaves atomic.Int64
			if !submitGraph(p, s, &leaves, nil).ok {
				return nil, fmt.Errorf("warm-up graph %s failed", dagShapes[s].name)
			}
		}
		return p, nil
	}, drainPool)
	if err != nil {
		return nil, err
	}

	var untraced *dagRun
	if rc.Traced {
		untraced = dagOnce(pool, rc, clients, seconds, false)
	}
	var peak poolPeaks
	stopSampler := func() {}
	if rc.Traced {
		stopSampler = samplePool(pool.Pool, &peak)
	}
	rss := startRSS()
	run := dagOnce(pool, rc, clients, seconds, rc.Traced)
	rssPeaks, err := rss.peaks(run.t0, run.t1, dagWindows)
	if err != nil {
		return nil, err
	}
	stopSampler()

	if err := drainPool(pool); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	stats := pool.Stats()
	rt := summarize(pool.Final())

	var wantLeaves, failed int64
	count := func(r *dagRun) {
		for _, g := range r.graphs {
			if g.ok {
				wantLeaves += int64(len(dagShapes[g.shape].deps))
			} else {
				failed++
			}
		}
	}
	count(run)
	leaves := run.leaves
	if untraced != nil {
		count(untraced)
		leaves += untraced.leaves
	}
	res.check("leaves_run_eq_nodes_of_ok_graphs", leaves == wantLeaves, "%d node bodies ran, want %d", leaves, wantLeaves)
	res.check("admitted_eq_completed_plus_cancelled", stats.Admitted == stats.Completed+stats.Cancelled,
		"admitted %d, completed %d, cancelled %d", stats.Admitted, stats.Completed, stats.Cancelled)
	res.check("no_graph_failed", failed == 0, "%d graphs failed or were refused", failed)
	res.Attempted = int64(len(run.graphs))
	res.Failed = failed

	if !rc.Traced {
		res.set("setup_s", median(setups))
		res.Notes["setup_s_all"] = setups
		win := (run.t1 - run.t0) / dagWindows
		nodes := make([]float64, dagWindows)
		lat := make([][][]float64, dagWindows) // window → shape → ms
		for w := range lat {
			lat[w] = make([][]float64, len(dagShapes))
		}
		for _, g := range run.graphs {
			if !g.ok {
				continue
			}
			w := windowOf(g.ret-run.t0, run.t1-run.t0, dagWindows)
			nodes[w] += float64(len(dagShapes[g.shape].deps))
			lat[w][g.shape] = append(lat[w][g.shape], float64(g.ret-g.start)/1e6)
		}
		var rate, p50, p90 []float64
		minSamples := -1
		for w := 0; w < dagWindows; w++ {
			rate = append(rate, nodes[w]/(float64(win)/1e9))
			var k50, k90 []float64
			for s := range dagShapes {
				k50 = append(k50, percentile(lat[w][s], 0.5))
				k90 = append(k90, percentile(lat[w][s], 0.9))
				if n := len(lat[w][s]); minSamples < 0 || n < minSamples {
					minSamples = n
				}
			}
			p50 = append(p50, geomean(k50))
			p90 = append(p90, geomean(k90))
		}
		res.setWindows("work_per_s", rate)
		res.setWindows("job_p50_ms", p50)
		res.setWindows("job_p90_ms", p90)
		res.Notes["min_graphs_per_shape_per_window"] = minSamples
		res.set("worker_area_per_kwork", ratio(rt.areaWS, float64(stats.Completed)/1000))
		res.set("wasted_share", rt.wastedShare())
		res.setWindows("peak_rss_mb", rssPeaks)
		res.Notes["slo_ok_share"] = run.sloShare()
		return res, nil
	}

	// Per-layer pass.
	n := float64(len(run.graphs))
	res.set("load.sent", n)
	res.set("load.ok", n-float64(failed))
	res.set("load.errored", float64(failed))
	res.set("load.failed_share", ratio(float64(failed), n))
	res.set("load.slo_ok_share", run.sloShare())
	res.setSamples("load.job_p99_ms", run.graphPct(-1, 0.99), len(run.graphs))
	res.set("load.trace_overhead_pct", pctDelta(run.kindP50(), untraced.kindP50()))
	rec := &recorder{}
	var gaps []float64
	for gi, g := range run.graphs {
		if !g.ok {
			continue
		}
		id := int64(gi)
		first, last := g.nodes[0].first, g.nodes[0].last
		for ni, st := range g.nodes {
			if st.first < first {
				first = st.first
			}
			if st.last > last {
				last = st.last
			}
			rec.add("dag.node", id, "dag.nodes", st.first, st.last)
			var released int64
			for _, d := range dagShapes[g.shape].deps[ni] {
				if g.nodes[d].last > released {
					released = g.nodes[d].last
				}
			}
			if released > 0 {
				rec.add("dag.release_gap", id, "dag.nodes", released, st.first)
				gaps = append(gaps, float64(st.first-released)/1e3)
			}
		}
		rec.add("graph", id, "", g.start, g.ret)
		rec.add("serve.admit_to_first_node", id, "graph", g.start, first)
		rec.add("dag.nodes", id, "graph", first, last)
		rec.add("serve.done_to_return", id, "graph", last, g.ret)
	}
	// Nodes of one graph overlap, so they cannot be subtracted from the
	// interval they share: the budget splits a graph into admission, the
	// span of its nodes and the return; the node and release-gap spans are
	// in the trace file for reading.
	var flat []span
	for _, s := range rec.spans {
		if s.Name != "dag.node" && s.Name != "dag.release_gap" {
			flat = append(flat, s)
		}
	}
	b := selfTimes(flat, "graph", func(job int64) bool { return run.graphs[job].shape == 0 })
	res.Notes["budget_over"] = dagShapes[0].name + " graphs"
	setBudget(res, b)
	res.setSamples("serve.dag_graph_p50_ms", run.kindP50(), len(run.graphs))
	res.setSamples("serve.dag_release_gap_p50_us", percentile(gaps, 0.5), len(gaps))
	res.setSamples("serve.submit_to_start_p50_us", spanPct(flat, "serve.admit_to_first_node", 0.5), b.Jobs)
	res.setSamples("serve.submit_to_start_p90_us", spanPct(flat, "serve.admit_to_first_node", 0.9), b.Jobs)
	res.setSamples("serve.run_p50_us", spanPct(rec.spans, "dag.node", 0.5), len(gaps))
	res.setSamples("serve.done_to_return_p50_us", spanPct(flat, "serve.done_to_return", 0.5), b.Jobs)
	setPoolCounters(res, stats, peak)
	setRuntimeCounters(res, rt)
	if err := pool.setIdleCounters(res); err != nil {
		return nil, err
	}
	path, err := writeTrace(rc.OutDir, dagInfo.Name, rec.spans, maxTraceSpans)
	if err != nil {
		return nil, err
	}
	res.Notes["trace_file"] = path
	return res, nil
}

// submitGraph builds one graph of the shape and runs it to completion.
func submitGraph(pool *benchPool, shape int, leaves *atomic.Int64, nodeStamps []stamps) graphRec {
	deps := dagShapes[shape].deps
	nodes := make([]serve.DAGNode, len(deps))
	for i := range nodes {
		var st *stamps
		if nodeStamps != nil {
			st = &nodeStamps[i]
		}
		nodes[i] = serve.DAGNode{Fn: leafJob(refWork, leaves, st), Deps: deps[i]}
	}
	g := graphRec{shape: shape, nodes: nodeStamps, start: nowNS()}
	errs, err := pool.SubmitDAG(context.Background(), nodes)
	g.ret = nowNS()
	g.ok = err == nil
	for _, e := range errs {
		if e != nil {
			g.ok = false
		}
	}
	return g
}

// dagOnce runs the closed loop for the given time: every client alternates
// the shapes, starting from a seed-chosen one.
func dagOnce(pool *benchPool, rc *runCtx, clients int, seconds float64, traced bool) *dagRun {
	run := &dagRun{}
	var leaves atomic.Int64
	per := make([][]graphRec, clients)
	rng := rc.rng(2)
	run.t0 = nowNS()
	deadline := run.t0 + int64(seconds*1e9)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c, shape int) {
			defer wg.Done()
			for nowNS() < deadline {
				var st []stamps
				if traced {
					st = make([]stamps, len(dagShapes[shape].deps))
				}
				per[c] = append(per[c], submitGraph(pool, shape, &leaves, st))
				shape = (shape + 1) % len(dagShapes)
			}
		}(c, rng.Intn(len(dagShapes)))
	}
	wg.Wait()
	run.t1 = nowNS() // the last graphs finish after the deadline; windows cover them
	for _, p := range per {
		run.graphs = append(run.graphs, p...)
	}
	run.leaves = leaves.Load()
	return run
}

// graphPct is the q-quantile of whole-graph latency in ms for one shape
// (shape < 0: all).
func (r *dagRun) graphPct(shape int, q float64) float64 {
	var xs []float64
	for _, g := range r.graphs {
		if g.ok && (shape < 0 || g.shape == shape) {
			xs = append(xs, float64(g.ret-g.start)/1e6)
		}
	}
	return percentile(xs, q)
}

// kindP50 is the geometric mean over shapes of the per-shape p50.
func (r *dagRun) kindP50() float64 {
	var k []float64
	for s := range dagShapes {
		k = append(k, r.graphPct(s, 0.5))
	}
	return geomean(k)
}

func (r *dagRun) sloShare() float64 {
	ok := 0
	for _, g := range r.graphs {
		if g.ok && g.ret-g.start <= int64(dagSLO) {
			ok++
		}
	}
	return ratio(float64(ok), float64(len(r.graphs)))
}
