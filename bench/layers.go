package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/deque"
	"palirria/internal/dvs"
	"palirria/internal/obs"
	"palirria/internal/obs/stream"
	"palirria/internal/serve"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// layerMicro measures the layers no workload can isolate: single-goroutine
// costs of the public methods of deque, core, dvs and topo, the injection
// and compute sides of wsrt on a bare Runtime, and the price of switching
// observability on. They do not depend on the workload, so every traced
// pass runs them and reports the same names.
func layerMicro(rc *runCtx, res *passResult) error {
	n := 200_000
	if rc.Tiny {
		n = 2_000
	}
	dequeMicro(res, n)
	estimatorMicro(res, n/100)
	if err := injectionMicro(rc, res); err != nil {
		return err
	}
	if err := computeMicro(rc, res); err != nil {
		return err
	}
	return obsMicro(rc, res, n)
}

// sink keeps the compiler from deleting measured calls.
var sink atomic.Int64

// perOp runs f reps times in three batches and returns the fastest batch's
// nanoseconds per call: the floor is what the code costs, the rest is the
// host.
func perOp(reps int, f func()) float64 {
	best := 0.0
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		ns := float64(time.Since(t0)) / float64(reps)
		if b == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func dequeMicro(res *passResult, n int) {
	v := new(int)
	cl := deque.MustChaseLev[int](1024)
	res.set("deque.chaselev_push_pop_ns", perOp(n, func() {
		cl.PushBottom(v)
		cl.PopBottom()
	}))
	res.set("deque.chaselev_steal_ns", perOp(n, func() {
		cl.PushBottom(v)
		cl.StealTop()
	}))
	sh := deque.MustShard[int](1024)
	res.set("deque.shard_push_pop_ns", perOp(n, func() {
		sh.Push(v)
		sh.Pop()
	}))
	sh.Refund(64)
	res.set("deque.shard_reserve_refund_ns", perOp(n, func() {
		sh.Refund(sh.TryReserve(8))
	}))
	q := deque.MustQueue[int](1024, 16)
	res.set("deque.queue_push_pop_ns", perOp(n, func() {
		q.PushBottom(1)
		q.PopBottom()
	}))
}

// estimatorMicro times one estimator decision on the paper's largest
// simulator allotment (27 workers on the 8x4 mesh, source 20): what the
// simulator pays every quantum and the runtime at every allotment change.
func estimatorMicro(res *passResult, n int) {
	m := topo.MustMesh(8, 4)
	m.Reserve(0, 1)
	a, err := topo.NewAllotment(m, 20, 4)
	if err != nil {
		panic(err) // the paper's own configuration; only a bug breaks it
	}
	res.set("topo.classify_ns", perOp(n, func() { sink.Add(int64(len(topo.Classify(a).X()))) }))
	c := topo.Classify(a)
	res.set("dvs.build_ns", perOp(n, func() { sink.Add(int64(len(dvs.New(c).Name()))) }))
	d := dvs.New(c)
	members := a.Members()
	buf := make([]topo.CoreID, 0, 64)
	i := 0
	res.set("dvs.victims_into_ns", perOp(n*50, func() {
		buf = d.VictimsInto(members[i%len(members)], buf[:0])
		i++
	}))
	ws := make(map[topo.CoreID]*core.WorkerSnapshot, len(members))
	for k, id := range members {
		ws[id] = &core.WorkerSnapshot{ID: id, QueueLen: k % 3, MaxQueueLen: k % 5, Busy: k%2 == 0}
	}
	snap := &core.Snapshot{Allotment: a, Class: c, Workers: ws, QuantumCycles: 50000}
	p := core.NewPalirria()
	res.set("core.estimate_ns", perOp(n*10, func() { sink.Add(int64(p.Estimate(snap))) }))
	ctl := core.NewController(core.NewPalirria())
	res.set("core.controller_step_ns", perOp(n*10, func() {
		ctl.Granted(ctl.Step(snap))
	}))
}

func bareRuntime(cfg wsrt.Config) (*wsrt.Runtime, error) {
	cfg.Mesh = topo.MustMesh(4, 2)
	cfg.Estimator = core.NewPalirria()
	cfg.Quantum = 2 * time.Millisecond
	return wsrt.New(cfg)
}

// bareRun runs root on a fresh bare runtime, again if its root is lost.
func bareRun(cfg func() wsrt.Config, root wsrt.Func) (*wsrt.Report, error) {
	for lost := 0; ; lost++ {
		rt, err := bareRuntime(cfg())
		if err != nil {
			return nil, err
		}
		rep, err := runGuarded(rt, root)
		if errors.Is(err, errRootLost) && lost+1 < maxLost {
			continue
		}
		return rep, err
	}
}

// injectionMicro measures the submit path on a bare persistent Runtime:
// the cost of the Submit call itself, and submit-to-first-instruction with
// the workers parked before every submission.
func injectionMicro(rc *runCtx, res *passResult) error {
	trials := 301
	if rc.Tiny {
		trials = 21
	}
	rt, err := bareRuntime(wsrt.Config{SubmitQueueCap: 512})
	if err != nil {
		return err
	}
	if err := rt.Start(); err != nil {
		return err
	}
	started := make(chan int64, 1)
	body := func(*wsrt.Ctx) { started <- nowNS() }
	var call, toStart []float64
	for i := 0; i < trials; i++ {
		time.Sleep(500 * time.Microsecond) // let the workers park again
		t0 := nowNS()
		if err := rt.Submit(body, nil); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		t1 := nowNS()
		call = append(call, float64(t1-t0))
		toStart = append(toStart, float64(<-started-t0)/1e3)
	}
	parks, wakeups := rt.IdleStats()
	t0 := time.Now()
	rep, err := rt.Shutdown()
	if err != nil {
		return err
	}
	res.set("wsrt.shutdown_ms", float64(time.Since(t0))/1e6)
	res.set("wsrt.ledger_ok", boolF(rt.VerifySubmitLedger() == nil))
	res.check("verify_submit_ledger", rt.VerifySubmitLedger() == nil, "%v", rt.VerifySubmitLedger())
	res.setSamples("wsrt.submit_call_p50_ns", percentile(call, 0.5), trials)
	res.setSamples("wsrt.submit_to_start_p50_us", percentile(toStart, 0.5), trials)
	// parks, wakeups and shard steals describe the workload where one ran
	// in this process; on the others they describe this probe.
	if _, ok := res.Metrics["wsrt.parks"]; !ok {
		res.set("wsrt.parks", float64(parks))
		res.set("wsrt.wakeups", float64(wakeups))
	}
	if _, ok := res.Metrics["wsrt.shard_steals"]; !ok {
		res.set("wsrt.shard_steals", float64(summarize(rep).shardSteals))
	}

	// A batch of 8 through a serving pool: the amortised admission call.
	pool, err := inProcessPool("batch-probe", rc.Seed)
	if err != nil {
		return err
	}
	var leaves atomic.Int64
	var batch []float64
	for i := 0; i < trials/3+1; i++ {
		fns := make([]wsrt.Func, 8)
		for k := range fns {
			fns[k] = fanJob(refFanout, refWork, &leaves, nil)
		}
		t0 := nowNS()
		for _, err := range pool.SubmitBatch(context.Background(), fns) {
			if err != nil {
				return fmt.Errorf("submit batch: %w", err)
			}
		}
		batch = append(batch, float64(nowNS()-t0)/1e3)
	}
	res.setSamples("serve.batch_call_p50_us", percentile(batch, 0.5), len(batch))
	return drainPool(pool)
}

// computeMicro runs a spawn tree whose tasks do nothing: wall time per
// task is spawn + sync + steal, the part of forkjoin_batch that is not the
// program's own work.
func computeMicro(rc *runCtx, res *passResult) error {
	depth := 16
	if rc.Tiny {
		depth = 8
	}
	var per []float64
	for i := 0; i < 5; i++ {
		rep, err := bareRun(func() wsrt.Config { return wsrt.Config{} }, spawnTree(depth))
		if err != nil {
			return err
		}
		s := summarize(rep)
		want := int64(1)<<(depth+1) - 1
		if s.tasks != want {
			return fmt.Errorf("spawn tree ran %d tasks, want %d", s.tasks, want)
		}
		per = append(per, float64(rep.WallNS)/float64(s.tasks))
	}
	res.setSamples("wsrt.spawn_sync_ns_per_task", median(per), len(per))
	return nil
}

// obsMicro prices observability: a Hub publish with and without a
// subscriber, a fork/join run with and without Config.Tracer, and steady
// single submissions with and without serve.Config.Events and one draining
// subscriber.
func obsMicro(rc *runCtx, res *passResult, n int) error {
	hub := stream.NewHub()
	ev := stream.Event{Kind: stream.KindStarted, Pool: "p", Job: 1}
	res.set("obs.hub_publish_0sub_ns", perOp(n, func() { hub.Publish(ev) }))
	sub := hub.Subscribe(stream.SubOptions{Buf: 4096})
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for range sub.Events() {
		}
	}()
	res.set("obs.hub_publish_1sub_ns", perOp(n, func() { hub.Publish(ev) }))
	hub.Close()
	drained.Wait()

	// Tracer on/off on the zero-work tree: the worst case for per-event
	// cost, since the tasks do nothing else.
	depth := 15
	if rc.Tiny {
		depth = 8
	}
	wall := func(traced bool) (float64, error) {
		var ws []float64
		for i := 0; i < 5; i++ {
			rep, err := bareRun(func() wsrt.Config {
				if traced {
					return wsrt.Config{Tracer: obs.NewTracer(obs.WithTicksPerMicro(1000))}
				}
				return wsrt.Config{}
			}, spawnTree(depth))
			if err != nil {
				return 0, err
			}
			ws = append(ws, float64(rep.WallNS))
		}
		return median(ws), nil
	}
	off, err := wall(false)
	if err != nil {
		return err
	}
	on, err := wall(true)
	if err != nil {
		return err
	}
	res.set("obs.tracer_on_wall_delta_pct", pctDelta(on, off))

	secs := 1.0
	if rc.Tiny {
		secs = 0.1
	}
	p50 := func(events bool) (float64, int64, error) {
		cfg := serve.Config{Name: "obs-probe", Runtime: wsrt.Config{Mesh: topo.MustMesh(4, 2), Quantum: 2 * time.Millisecond}, QueueCap: 1024}
		var h *stream.Hub
		var s *stream.Sub
		var wg sync.WaitGroup
		if events {
			h = stream.NewHub()
			cfg.Events = h
			s = h.Subscribe(stream.SubOptions{Buf: 4096})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range s.Events() {
				}
			}()
		}
		sp, err := serve.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		pool := &benchPool{Pool: sp}
		if err := warmPool(pool, 10*time.Millisecond); err != nil {
			return 0, 0, err
		}
		arr := schedule([]phase{{"steady", 1000, secs}}, 1)
		due := make([]int64, len(arr))
		for i, a := range arr {
			due[i] = a.due
		}
		lat := make([]float64, len(arr))
		var leaves atomic.Int64
		var failed atomic.Int64
		ol := realOpenLoop()
		ol.run(nowNS(), due, 0, func(i int, dueAbs, _ int64) {
			if err := pool.SubmitJob(context.Background(), serve.Job{Fn: fanJob(refFanout, refWork, &leaves, nil)}); err != nil {
				failed.Add(1)
			}
			lat[i] = float64(nowNS()-dueAbs) / 1e6
		})
		if err := drainPool(pool); err != nil {
			return 0, 0, err
		}
		var dropped int64
		if events {
			h.Close()
			wg.Wait()
			dropped = h.DroppedTotal()
		}
		if failed.Load() > 0 {
			return 0, 0, fmt.Errorf("events probe: %d submissions failed", failed.Load())
		}
		return percentile(lat, 0.5), dropped, nil
	}
	offP50, _, err := p50(false)
	if err != nil {
		return err
	}
	onP50, dropped, err := p50(true)
	if err != nil {
		return err
	}
	res.set("obs.events_on_p50_delta_pct", pctDelta(onP50, offP50))
	res.set("obs.stream_dropped", float64(dropped))
	return nil
}
