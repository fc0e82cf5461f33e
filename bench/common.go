package main

import (
	"errors"
	"sync"
	"time"

	"palirria/internal/serve"
	"palirria/internal/wsrt"
)

// maxTraceSpans bounds a trace file; the budget uses every span.
const maxTraceSpans = 200_000

// runLimit is how long one batch run may take before its root counts as
// lost; the longest program the benchmark runs takes about 0.15 s.
const runLimit = 3 * time.Second

var errRootLost = errors.New("root lost: Run did not return, every worker parked with the root unfinished")

// runGuarded is rt.Run(root) in a goroutine of its own, so that a run
// which never returns is an error with a name and not a benchmark that
// hangs (README, "a bug this benchmark found"). An abandoned runtime keeps
// its parked workers and its helper tick until the process ends.
func runGuarded(rt *wsrt.Runtime, root wsrt.Func) (*wsrt.Report, error) {
	type outcome struct {
		rep *wsrt.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := rt.Run(root)
		done <- outcome{rep, err}
	}()
	select {
	case o := <-done:
		return o.rep, o.err
	case <-time.After(runLimit):
		return nil, errRootLost
	}
}

// rtSummary is a wsrt.Report folded to the totals the metrics use.
type rtSummary struct {
	areaWS                  float64 // worker-seconds granted, from Report.Timeline.Area
	usefulS, searchS, idleS float64
	tasks, steals, failed   int64
	shardSteals             int64
	peakWorkers             int
	meanWorkers             float64
	quanta                  int
	wallS                   float64
}

func summarize(r *wsrt.Report) rtSummary {
	var s rtSummary
	if r == nil {
		return s
	}
	s.wallS = float64(r.WallNS) / 1e9
	s.areaWS = float64(r.Timeline.Area(r.WallNS)) / 1e9
	s.peakWorkers = r.MaxWorkers
	s.meanWorkers = ratio(s.areaWS, s.wallS)
	s.quanta = len(r.Decisions.Decisions())
	for _, w := range r.Workers {
		s.usefulS += float64(w.UsefulNS) / 1e9
		s.searchS += float64(w.SearchNS) / 1e9
		s.idleS += float64(w.IdleNS) / 1e9
		s.tasks += w.Tasks
		s.steals += w.Steals
		s.failed += w.FailedProbes
		s.shardSteals += w.ShardSteals
	}
	return s
}

// add accumulates another report (a batch workload runs many runtimes).
func (s *rtSummary) add(o rtSummary) {
	s.areaWS += o.areaWS
	s.usefulS += o.usefulS
	s.searchS += o.searchS
	s.idleS += o.idleS
	s.tasks += o.tasks
	s.steals += o.steals
	s.failed += o.failed
	s.shardSteals += o.shardSteals
	s.quanta += o.quanta
	s.wallS += o.wallS
	if o.peakWorkers > s.peakWorkers {
		s.peakWorkers = o.peakWorkers
	}
	s.meanWorkers = ratio(s.areaWS, s.wallS)
}

// wastedShare is the paper's wastefulness as this benchmark can see it
// from outside: (search + idle) / (useful + search + idle) over the
// workers the report lists.
func (s rtSummary) wastedShare() float64 {
	return ratio(s.searchS+s.idleS, s.usefulS+s.searchS+s.idleS)
}

func setRuntimeCounters(res *passResult, s rtSummary) {
	res.set("wsrt.tasks", float64(s.tasks))
	res.set("wsrt.steals", float64(s.steals))
	res.set("wsrt.failed_probes", float64(s.failed))
	res.set("wsrt.steal_success_share", ratio(float64(s.steals), float64(s.steals+s.failed)))
	res.set("wsrt.shard_steals", float64(s.shardSteals))
	res.set("wsrt.useful_s", s.usefulS)
	res.set("wsrt.search_s", s.searchS)
	res.set("wsrt.idle_s", s.idleS)
	res.set("wsrt.peak_workers", float64(s.peakWorkers))
	res.set("wsrt.mean_workers", s.meanWorkers)
	res.set("wsrt.quanta", float64(s.quanta))
}

// poolPeaks are the maxima a sampler saw while a pool ran.
type poolPeaks struct {
	desire    int
	shedLevel int32
}

// samplePool polls the pool's Stats once a millisecond until the returned
// stop function is called; desire and the shed level both decay once the
// load stops, so end-of-run stats alone would under-report them.
func samplePool(p *serve.Pool, peak *poolPeaks) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				st := p.Stats()
				if st.Desire > peak.desire {
					peak.desire = st.Desire
				}
				if st.ShedLevel > peak.shedLevel {
					peak.shedLevel = st.ShedLevel
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

func setPoolCounters(res *passResult, st serve.Stats, peak poolPeaks) {
	res.set("serve.admitted", float64(st.Admitted))
	res.set("serve.completed", float64(st.Completed))
	res.set("serve.cancelled", float64(st.Cancelled))
	res.set("serve.rejected_full", float64(st.RejectedFull))
	res.set("serve.rejected_shed", float64(st.RejectedShed))
	res.set("serve.rejected_deadline", float64(st.RejectedDeadline))
	res.set("serve.peak_desire", float64(peak.desire))
	res.set("serve.shed_level_max", float64(peak.shedLevel))
	res.set("serve.conservation_ok", boolF(st.Admitted == st.Completed+st.Cancelled))
}

func setBudget(res *passResult, b budget) {
	res.setSamples("load.unattributed_p50_us", b.UnattributedUS, b.Jobs)
	res.set("load.attribution_gap_pct", b.GapPct)
	res.Notes["budget_root_p50_us"] = b.RootP50US
	res.Notes["budget_median_job_self_us"] = b.SelfUS
	res.Notes["budget_slice_jobs"] = b.Slice
}

// spanPct is the q-quantile, in µs, of the durations of the spans named
// name.
func spanPct(spans []span, name string, q float64) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return percentile(xs, q)
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
