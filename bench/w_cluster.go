package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// cluster_http: open loop at a fixed rate over at most nproc keep-alive
// connections: POST /submit → palirria-router → two palirria-serve nodes.
// Everything runs on loopback, so "network" here is the kernel's loopback
// path and the HTTP/JSON code, not a wire. Router hop, HTTP/JSON, the p2c
// pick and gossip do most of the non-job work; the steal path almost none.

var clusterInfo = workloadInfo{
	Name: "cluster_http",
	Why:  "open-loop 400 req/s over loopback HTTP through palirria-router to two palirria-serve daemons: router hop, HTTP/JSON, p2c pick and gossip dominate, stealing is idle",
}

const (
	clusterRate    = 400
	clusterSLO     = 20 * time.Millisecond
	clusterWindows = 5
	clusterQuery   = "/submit?fanout=8&work=10000"
	gossipEvery    = "100ms"
)

// cluster is the running system under test.
type cluster struct {
	nodes     []*daemon
	router    *daemon
	nodeURLs  []string
	routerURL string
	client    *http.Client
	convergeS float64
}

func startCluster(rc *runCtx) (*cluster, error) {
	serveBin, err := buildProgram(rc.Root, rc.BinDir, "palirria-serve")
	if err != nil {
		return nil, err
	}
	routerBin, err := buildProgram(rc.Root, rc.BinDir, "palirria-router")
	if err != nil {
		return nil, err
	}
	ports := make([]int, 3)
	for i := range ports {
		if ports[i], err = freePort(); err != nil {
			return nil, err
		}
	}
	url := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	conns := runtime.NumCPU()
	c := &cluster{
		nodeURLs:  []string{url(0), url(1)},
		routerURL: url(2),
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		},
	}
	logDir := filepath.Join(rc.OutDir, "logs")
	for i := 0; i < 2; i++ {
		d, err := startDaemon(fmt.Sprintf("serve-%d", i), serveBin, logDir,
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-mesh", "2x2", "-quantum", "2ms",
			"-queue-cap", "4096", "-gossip", gossipEvery,
			"-cluster-addr", url(i), "-cluster-join", url(1-i))
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, d)
	}
	c.router, err = startDaemon("router", routerBin, logDir,
		"-listen", fmt.Sprintf("127.0.0.1:%d", ports[2]), "-gossip", gossipEvery,
		"-cluster-join", url(0)+","+url(1))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := c.converge(10 * time.Second); err != nil {
		return nil, err
	}
	c.convergeS = time.Since(t0).Seconds()
	return c, nil
}

// clusterView is the part of /cluster the benchmark reads.
type clusterView struct {
	Peers []struct {
		State string `json:"state"`
	} `json:"peers"`
	Rounds int64 `json:"rounds"`
}

func (c *cluster) view(base string) (clusterView, error) {
	var v clusterView
	resp, err := c.client.Get(base + "/cluster")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("%s/cluster: %s", base, resp.Status)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// converge waits until every member sees all three members alive.
func (c *cluster) converge(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	members := append(append([]string(nil), c.nodeURLs...), c.routerURL)
	for {
		ready := 0
		var lastErr error
		for _, m := range members {
			v, err := c.view(m)
			if err != nil {
				lastErr = err
				continue
			}
			alive := 0
			for _, p := range v.Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive == len(members) {
				ready++
			}
		}
		if ready == len(members) {
			return nil
		}
		for _, d := range append(append([]*daemon(nil), c.nodes...), c.router) {
			select {
			case <-d.done:
				return fmt.Errorf("%s exited during start-up: %v (see bench/out/logs)", d.name, d.err)
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not converge within %v (last error: %v)", limit, lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// submitReply is the part of a /submit reply the benchmark reads.
type submitReply struct {
	LatencyNS int64 `json:"latency_ns"`
}

// submit posts one reference job to base and returns the node that served
// it and the node-side latency from the reply.
func (c *cluster) submit(base string) (node string, nodeNS int64, err error) {
	resp, err := c.client.Post(base+clusterQuery, "application/json", nil)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep submitReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return "", 0, fmt.Errorf("reply %q: %w", body, err)
	}
	return resp.Header.Get("X-Palirria-Node"), rep.LatencyNS, nil
}

func (c *cluster) metrics(base string) (map[string]float64, error) {
	resp, err := c.client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promSums(resp.Body)
}

// nodeTotals sums the serve nodes' /metrics.
func (c *cluster) nodeTotals() (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range c.nodeURLs {
		m, err := c.metrics(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// poolStatus is the part of /status and of the /drain reply the benchmark
// reads.
type poolStatus struct {
	Pools []struct {
		Admitted  int64 `json:"admitted"`
		Completed int64 `json:"completed"`
		Cancelled int64 `json:"cancelled"`
		InFlight  int64 `json:"in_flight"`
		Allotment int   `json:"allotment"`
		Desire    int   `json:"desire"`
		ShedLevel int32 `json:"shed_level"`

		RejectedFull     int64 `json:"rejected_full"`
		RejectedShed     int64 `json:"rejected_shed"`
		RejectedDeadline int64 `json:"rejected_deadline"`
	} `json:"pools"`
}

func (c *cluster) status(base string) (poolStatus, error) {
	var st poolStatus
	resp, err := c.client.Get(base + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// stop reads the nodes' final ledgers, drains them (they must exit 0 on
// their own), ends the router, which has no drain endpoint, and returns
// the ledgers and the daemons' summed peak resident set.
//
// The ledger is read from /status before the drain: every reply is in, so
// nothing is in flight and the counts are final. The /drain reply carries
// the same record, but the daemon closes its listener as soon as it has
// written it, and about one reply in ten is cut off mid-way (EOF); the
// drain itself is judged by the exit code.
func (c *cluster) stop() (final []poolStatus, rssMB float64, err error) {
	for _, d := range append(append([]*daemon(nil), c.nodes...), c.router) {
		mb, rerr := peakRSSMB(d.cmd.Process.Pid)
		if rerr != nil && err == nil {
			err = rerr
		}
		rssMB += mb
	}
	for i, u := range c.nodeURLs {
		st, serr := c.status(u)
		if serr != nil && err == nil {
			err = fmt.Errorf("status of %s: %w", c.nodes[i].name, serr)
		}
		final = append(final, st)
		if resp, derr := c.client.Post(u+"/drain", "application/json", nil); derr == nil {
			resp.Body.Close()
		}
	}
	for _, d := range c.nodes {
		if werr := d.wait(15 * time.Second); werr != nil && err == nil {
			err = fmt.Errorf("%s after /drain: %w", d.name, werr)
		}
	}
	c.router.terminate()
	c.client.CloseIdleConnections()
	if err != nil {
		killChildren()
	}
	return final, rssMB, err
}

// httpRec is one request as the generator saw it.
type httpRec struct {
	due, sent, ret int64
	nodeNS         int64
	node           string
	direct         bool
	err            error
}

// clusterPhase sends arrivals through the router; with direct set, every
// other one goes straight to a node instead, interleaved, so the two
// paths see the same minute of the same machine.
func clusterPhase(c *cluster, arrivals []arrival, direct bool) []httpRec {
	recs := make([]httpRec, len(arrivals))
	due := make([]int64, len(arrivals))
	for i, a := range arrivals {
		due[i] = a.due
	}
	ol := realOpenLoop()
	ol.run(nowNS(), due, runtime.NumCPU(), func(i int, dueAbs, sent int64) {
		r := &recs[i]
		r.due, r.sent = dueAbs, sent
		base := c.routerURL
		if direct && i%2 == 1 {
			base, r.direct = c.nodeURLs[(i/2)%len(c.nodeURLs)], true
		}
		r.node, r.nodeNS, r.err = c.submit(base)
		r.ret = nowNS()
	})
	return recs
}

func runCluster(rc *runCtx) (*passResult, error) {
	res := newPass()
	seconds := rc.Seconds
	if rc.Traced {
		seconds = min(seconds, 6)
	}
	window := seconds / clusterWindows
	arrivals := schedule([]phase{{"steady", clusterRate, window}}, clusterWindows)
	res.Notes["loop"] = fmt.Sprintf("open, %d req/s over %d keep-alive connections", clusterRate, runtime.NumCPU())
	res.Notes["work_unit"] = "requests"
	res.Notes["network"] = "loopback: one host, ephemeral 127.0.0.1 ports, no wire"
	res.Notes["topology"] = "palirria-router -> 2 x palirria-serve -mesh 2x2 -quantum 2ms, gossip " + gossipEvery
	res.Notes["request"] = "POST " + clusterQuery
	res.Notes["slo_ms"] = clusterSLO.Milliseconds()
	res.Notes["windows"] = clusterWindows

	warm := 200
	if rc.Tiny {
		warm = 20
	}
	c, setups, err := setupRepeated(rc.setupReps(5), func() (*cluster, error) {
		c, err := startCluster(rc)
		if err != nil {
			return nil, err
		}
		// Warm both paths: connections, the nodes' lazily built runtime
		// state, the router's picker.
		for i := 0; i < warm; i++ {
			base := c.routerURL
			if i%4 == 3 {
				base = c.nodeURLs[(i/4)%2]
			}
			if _, _, err := c.submit(base); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return c, nil
	}, func(c *cluster) error {
		_, _, err := c.stop()
		return err
	})
	if err != nil {
		return nil, err
	}
	// An error return below leaves the daemons to runPass, which ends
	// every child still running.
	before, err := c.nodeTotals()
	if err != nil {
		return nil, err
	}
	routerBefore, err := c.metrics(c.routerURL)
	if err != nil {
		return nil, err
	}
	// The allotment is a gauge; its integral over the phase is sampled.
	// Only the sampler writes these until areaDone.Wait returns.
	var areaWS float64
	var peakDesire int
	var peakShed int32
	stopArea := make(chan struct{})
	var areaDone sync.WaitGroup
	areaDone.Add(1)
	go func() {
		defer areaDone.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		last := nowNS()
		for {
			select {
			case <-stopArea:
				return
			case <-t.C:
				now := nowNS()
				dt := float64(now-last) / 1e9
				last = now
				for _, u := range c.nodeURLs {
					st, err := c.status(u)
					if err != nil {
						continue
					}
					for _, p := range st.Pools {
						areaWS += float64(p.Allotment) * dt
						if p.Desire > peakDesire {
							peakDesire = p.Desire
						}
						if p.ShedLevel > peakShed {
							peakShed = p.ShedLevel
						}
					}
				}
			}
		}
	}()
	recs := clusterPhase(c, arrivals, rc.Traced)
	close(stopArea)
	areaDone.Wait()
	after, err := c.nodeTotals()
	if err != nil {
		return nil, err
	}
	routerAfter, err := c.metrics(c.routerURL)
	if err != nil {
		return nil, err
	}
	views := map[string]clusterView{}
	for _, u := range append(append([]string(nil), c.nodeURLs...), c.routerURL) {
		if views[u], err = c.view(u); err != nil {
			return nil, err
		}
	}
	convergeS := c.convergeS
	final, rssMB, err := c.stop()
	if err != nil {
		return nil, err
	}

	var failed int64
	var firstErr error
	perNode := map[string]int{}
	for i := range recs {
		if recs[i].err != nil {
			failed++
			if firstErr == nil {
				firstErr = recs[i].err
			}
		} else if !recs[i].direct {
			perNode[recs[i].node]++
		}
	}
	res.check("no_request_failed", failed == 0, "%d of %d requests failed, the first: %v", failed, len(recs), firstErr)
	var admitted, completed, cancelled, inFlight int64
	var rejFull, rejShed, rejDeadline int64
	for _, st := range final {
		for _, p := range st.Pools {
			inFlight += p.InFlight
			admitted += p.Admitted
			completed += p.Completed
			cancelled += p.Cancelled
			rejFull += p.RejectedFull
			rejShed += p.RejectedShed
			rejDeadline += p.RejectedDeadline
		}
	}
	res.check("admitted_eq_completed_plus_cancelled", len(final) == 2 && inFlight == 0 && admitted == completed+cancelled,
		"%d ledgers, in flight %d, admitted %d, completed %d, cancelled %d", len(final), inFlight, admitted, completed, cancelled)
	res.check("nodes_saw_every_request", completed >= int64(len(recs))-failed,
		"nodes completed %d jobs, the generator got %d replies", completed, int64(len(recs))-failed)
	res.check("daemons_exit_0", true, "") // stop returned no error: both nodes exited 0 after /drain
	res.Attempted = int64(len(recs))
	res.Failed = failed

	delta := func(name string) float64 { return after[name] - before[name] }
	useful, search, idle := delta("palirria_worker_useful_ns"), delta("palirria_worker_search_ns"), delta("palirria_worker_idle_ns")
	lat := func(idx []int, q float64, direct bool) float64 {
		var xs []float64
		for _, i := range idx {
			if recs[i].err == nil && recs[i].direct == direct {
				xs = append(xs, float64(recs[i].ret-recs[i].due)/1e6)
			}
		}
		return percentile(xs, q)
	}
	byWin := make([][]int, clusterWindows)
	all := make([]int, len(recs))
	for i, a := range arrivals {
		byWin[a.window] = append(byWin[a.window], i)
		all[i] = i
	}
	late := make([]float64, len(recs))
	within := 0
	for i := range recs {
		late[i] = float64(recs[i].sent-recs[i].due) / 1e6
		if recs[i].err == nil && recs[i].ret-recs[i].due <= int64(clusterSLO) {
			within++
		}
	}
	res.Valid = percentile(late, 0.9) <= 1

	if !rc.Traced {
		res.set("setup_s", median(setups))
		res.Notes["setup_s_all"] = setups
		var rate, p50, p90 []float64
		for _, idx := range byWin {
			// Replies per second of the wall time the window's requests
			// took, first one due to last one answered.
			ok, last := 0, int64(0)
			for _, i := range idx {
				if recs[i].err == nil {
					ok++
				}
				last = max(last, recs[i].ret)
			}
			rate = append(rate, ratio(float64(ok), float64(last-recs[idx[0]].due)/1e9))
			p50 = append(p50, lat(idx, 0.5, false))
			p90 = append(p90, lat(idx, 0.9, false))
		}
		res.setWindows("work_per_s", rate)
		res.setWindows("job_p50_ms", p50)
		res.setWindows("job_p90_ms", p90)
		res.Notes["requests_per_window"] = len(byWin[0])
		res.set("worker_area_per_kwork", ratio(areaWS, float64(len(recs))/1000))
		res.set("wasted_share", ratio(search+idle, useful+search+idle))
		res.set("peak_rss_mb", rssMB)
		res.Notes["slo_ok_share"] = ratio(float64(within), float64(len(recs)))
		res.Notes["late_p90_ms"] = percentile(late, 0.9)
		return res, nil
	}

	// Per-layer pass.
	n := float64(len(recs))
	res.set("load.sent", n)
	res.set("load.ok", n-float64(failed))
	res.set("load.errored", float64(failed))
	res.set("load.failed_share", ratio(float64(failed), n))
	res.set("load.slo_ok_share", ratio(float64(within), n))
	res.set("load.late_p90_ms", percentile(late, 0.9))
	res.set("load.late_max_ms", percentile(late, 1))
	res.setSamples("load.job_p99_ms", lat(all, 0.99, false), len(recs)/2)
	rec := &recorder{}
	var overheadRouted, overheadDirect, rttDirect []float64
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		over := float64(r.ret-r.sent-r.nodeNS) / 1e6
		if r.direct {
			overheadDirect = append(overheadDirect, over)
			rttDirect = append(rttDirect, float64(r.ret-r.sent)/1e6)
			continue
		}
		overheadRouted = append(overheadRouted, over)
		id := int64(i)
		rec.add("request", id, "", r.due, r.ret)
		rec.add("load.wait", id, "request", r.due, r.sent)
		rec.add("http.router_and_node", id, "request", r.sent, r.ret)
		// The node reports how long its SubmitJob call took, not when it
		// started; the span is placed at the end of the round trip.
		rec.add("serve.submit_job", id, "http.router_and_node", r.ret-r.nodeNS, r.ret)
	}
	b := selfTimes(rec.spans, "request", nil)
	setBudget(res, b)
	res.setSamples("serve_http.rtt_p50_ms", percentile(rttDirect, 0.5), len(rttDirect))
	res.setSamples("serve_http.overhead_p50_ms", percentile(overheadDirect, 0.5), len(overheadDirect))
	res.setSamples("cluster.router_hop_p50_ms", percentile(overheadRouted, 0.5)-percentile(overheadDirect, 0.5), len(overheadRouted))
	rdelta := func(name string) float64 { return routerAfter[name] - routerBefore[name] }
	res.set("cluster.routed", rdelta("palirria_router_routed_total"))
	res.set("cluster.retried", rdelta("palirria_router_retried_total"))
	res.set("cluster.failed_over", rdelta("palirria_router_failover_total"))
	res.set("cluster.failed", rdelta("palirria_router_failed_total"))
	maxShare := 0.0
	routed := 0
	for _, k := range perNode {
		routed += k
	}
	for _, k := range perNode {
		maxShare = max(maxShare, ratio(float64(k), float64(routed)))
	}
	res.set("cluster.node_share_max", maxShare)
	res.set("cluster.converge_s", convergeS)
	var rounds int64
	for _, v := range views {
		rounds += v.Rounds
	}
	res.set("cluster.gossip_rounds", float64(rounds))
	// The traced pass has no untraced twin here: the spans are made from
	// the same four stamps the untraced pass takes, so tracing costs
	// nothing extra; what differs is the interleaved direct traffic.
	res.set("load.trace_overhead_pct", 0)
	res.set("serve.run_p50_us", percentile(nodeLatencies(recs), 0.5))
	res.set("serve.admitted", float64(admitted))
	res.set("serve.completed", float64(completed))
	res.set("serve.cancelled", float64(cancelled))
	res.set("serve.rejected_full", float64(rejFull))
	res.set("serve.rejected_shed", float64(rejShed))
	res.set("serve.rejected_deadline", float64(rejDeadline))
	res.set("serve.peak_desire", float64(peakDesire))
	res.set("serve.shed_level_max", float64(peakShed))
	res.set("serve.conservation_ok", boolF(admitted == completed+cancelled))
	res.set("wsrt.tasks", delta("palirria_tasks_total"))
	res.set("wsrt.steals", delta("palirria_steals_total"))
	res.set("wsrt.failed_probes", delta("palirria_failed_probes_total"))
	res.set("wsrt.steal_success_share", ratio(delta("palirria_steals_total"), delta("palirria_steals_total")+delta("palirria_failed_probes_total")))
	res.set("wsrt.shard_steals", delta("palirria_shard_steals_total"))
	res.set("wsrt.parks", delta("palirria_parks_total"))
	res.set("wsrt.wakeups", delta("palirria_wakeups_total"))
	res.set("wsrt.useful_s", useful/1e9)
	res.set("wsrt.search_s", search/1e9)
	res.set("wsrt.idle_s", idle/1e9)
	res.set("wsrt.quanta", delta("palirria_quanta_total"))
	res.set("wsrt.mean_workers", ratio(areaWS, seconds))
	path, err := writeTrace(rc.OutDir, clusterInfo.Name, rec.spans, maxTraceSpans)
	if err != nil {
		return nil, err
	}
	res.Notes["trace_file"] = path
	return res, nil
}

// nodeLatencies are the node-side SubmitJob times of the replies, in µs.
func nodeLatencies(recs []httpRec) []float64 {
	var xs []float64
	for i := range recs {
		if recs[i].err == nil {
			xs = append(xs, float64(recs[i].nodeNS)/1e3)
		}
	}
	return xs
}
