package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// span is one interval the benchmark can see from outside the program: a
// call into a layer, or the gap between two stamps taken in benchmark code
// (a job body's first and last instruction). Spans of one job share Job;
// Parent names the enclosing span of the same job ("" for the root).
type span struct {
	Name    string `json:"name"`
	Job     int64  `json:"job"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the end-to-end pass runs untraced through
// the same code.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name string, job int64, parent string, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, StartNS: start, EndNS: end})
	r.mu.Unlock()
}

func (r *recorder) on() bool { return r != nil }

// budget is the per-layer split of the median job of one workload's traced
// pass. Medians of parts do not add up to the median of the whole, so the
// budget is taken over the jobs whose total lies between the 45th and the
// 55th percentile: for those, the mean self time of every layer (a span's
// duration minus the part its children cover) and the mean of what no
// child claimed add up to their mean total exactly, and that total is
// within the slice's width of the p50.
type budget struct {
	SelfUS         map[string]float64 // mean self time per span name over the slice
	RootP50US      float64            // p50 of the root span over all jobs
	UnattributedUS float64            // the root span's own self time over the slice
	// GapPct is |sum of the parts - root p50| over the root p50.
	GapPct float64
	Jobs   int // jobs in the pass
	Slice  int // jobs in the slice
}

// selfTimes derives the budget. root names the span that covers a whole
// job; keep, when not nil, selects the jobs to take it over — a workload
// that mixes job kinds takes it over its reference kind, because the
// median of a mix is no job in particular.
func selfTimes(spans []span, root string, keep func(job int64) bool) budget {
	type key struct {
		job  int64
		name string
	}
	dur := make(map[key]int64, len(spans))
	child := make(map[key]int64, len(spans))
	for _, s := range spans {
		if keep != nil && !keep(s.Job) {
			continue
		}
		dur[key{s.Job, s.Name}] += s.EndNS - s.StartNS
		if s.Parent != "" {
			child[key{s.Job, s.Parent}] += s.EndNS - s.StartNS
		}
	}
	var roots []float64
	for k, d := range dur {
		if k.name == root {
			roots = append(roots, float64(d)/1e3)
		}
	}
	b := budget{SelfUS: map[string]float64{}, Jobs: len(roots)}
	if len(roots) == 0 {
		return b
	}
	b.RootP50US = percentile(roots, 0.5)
	lo, hi := percentile(roots, 0.45), percentile(roots, 0.55)
	inSlice := map[int64]bool{}
	for k, d := range dur {
		if us := float64(d) / 1e3; k.name == root && us >= lo && us <= hi {
			inSlice[k.job] = true
		}
	}
	b.Slice = len(inSlice)
	var sum float64
	for k, d := range dur {
		if !inSlice[k.job] {
			continue
		}
		self := float64(d-child[k]) / 1e3 / float64(b.Slice)
		sum += self
		if k.name == root {
			b.UnattributedUS += self
		} else {
			b.SelfUS[k.name] += self
		}
	}
	b.GapPct = 100 * math.Abs(sum-b.RootP50US) / b.RootP50US
	return b
}

// writeTrace stores the spans of one workload under dir. Spans beyond max
// are dropped from the file (never from the budget): a burst phase can
// record a million of them, and the file is for reading, not for replay.
func writeTrace(dir, workload string, spans []span, max int) (string, error) {
	if len(spans) > max {
		spans = spans[:max]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
