package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"palirria/internal/xrand"
)

// runCtx is what one pass over one workload is given. The workload makes
// every input from Seed; nothing else about a run is random on purpose.
type runCtx struct {
	Seed    uint64
	Seconds float64 // length of the timed phase
	Traced  bool    // per-layer pass instead of the end-to-end pass
	Tiny    bool    // -scale tiny: the smallest run that still emits every metric
	Root    string  // repository root (the daemons are built from it)
	OutDir  string  // bench/out: traces, logs, result files
	BinDir  string  // where built daemons go
}

// rng returns the generator for one named stream of this run's seed, so
// adding a consumer never shifts the numbers an existing one draws.
func (rc *runCtx) rng(stream uint64) *xrand.Xoshiro256 {
	return xrand.NewXoshiro256(xrand.Hash64(rc.Seed) ^ xrand.Hash64(stream+0x9e3779b97f4a7c15))
}

// setupReps is how often a pass sets the workload up to report the median
// set-up time; the last set-up is the one the timed phase runs on. full is
// the count for an end-to-end pass at full scale.
func (rc *runCtx) setupReps(full int) int {
	if rc.Tiny || rc.Traced {
		return 1
	}
	return full
}

// value is one reported number. Windows and IQR are present when the value
// is a median of window values; Samples when it is a percentile.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Windows []float64 `json:"windows,omitempty"`
	IQR     float64   `json:"window_iqr,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// check is one output check; a failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// passResult is what one pass produced.
type passResult struct {
	Metrics   map[string]value `json:"metrics"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Checks    []check          `json:"checks"`
	// Valid is false when the generator itself ran late (load.late_p90_ms
	// over 1 ms): the numbers then describe the generator, not the system.
	Valid bool `json:"valid"`
	// Notes records what the numbers were measured on: mesh shapes,
	// rates, loop kind, unit of work, sample counts, trace file.
	Notes map[string]any `json:"notes"`
}

func newPass() *passResult {
	return &passResult{Metrics: map[string]value{}, Valid: true, Notes: map[string]any{}}
}

func (p *passResult) set(name string, v float64) {
	p.Metrics[name] = value{Value: v}
}

// setWindows reports a gated value measured once per window of the timed
// phase: the value is the median window, and the window spread travels
// with it so compare can tell "unchanged" from "cannot tell".
func (p *passResult) setWindows(name string, ws []float64) {
	p.Metrics[name] = value{Value: median(ws), Windows: ws, IQR: iqr(ws)}
}

func (p *passResult) setSamples(name string, v float64, n int) {
	p.Metrics[name] = value{Value: v, Samples: n}
}

func (p *passResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	p.Checks = append(p.Checks, c)
}

func (p *passResult) correct() bool {
	for _, c := range p.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// finish stamps units from the catalogue, fills the metrics this workload
// does not exercise with 0 and rejects values that are not finite.
func (p *passResult) finish(defs []metricDef) error {
	for _, d := range defs {
		v := p.Metrics[d.Name]
		v.Unit = d.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		p.Metrics[d.Name] = v
	}
	for name := range p.Metrics {
		if !defined(defs, name) {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// setupRepeated sets the workload up n times, tearing all but the last
// down again, and returns the last state with every set-up's duration.
func setupRepeated[T any](n int, setup func() (T, error), teardown func(T) error) (T, []float64, error) {
	var st T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, secs, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			if err := teardown(s); err != nil {
				return st, secs, err
			}
			continue
		}
		st = s
	}
	return st, secs, nil
}

// peakRSSMB reads VmHWM, the peak resident set, of process pid.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM of %d: not reported", pid)
}

// rssSampler reads this process's resident set every 10 ms. A single
// high-water mark (VmHWM) follows the garbage collector's luck: on
// forkjoin_batch four runs in ten read 26-31 MB and the other six 22-23 MB.
// The reported peak is instead the median over the windows of the timed
// phase of each window's 90th-percentile sample: the level the process
// stays under nine tenths of the time, which a spike of a few samples, or
// one confined to one or two windows, does not move.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	at   []int64
	mb   []float64
	err  error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		page := float64(os.Getpagesize()) / (1 << 20)
		for {
			data, err := os.ReadFile("/proc/self/statm")
			if err != nil {
				s.err = err
				return
			}
			fields := strings.Fields(string(data))
			if len(fields) < 2 {
				s.err = fmt.Errorf("/proc/self/statm: %q", data)
				return
			}
			pages, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				s.err = fmt.Errorf("/proc/self/statm: %w", err)
				return
			}
			s.at = append(s.at, nowNS())
			s.mb = append(s.mb, pages*page)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peaks stops the sampler and returns the 90th-percentile sample of each
// of n equal windows of [t0, t1]; a window without a sample repeats its
// predecessor.
func (s *rssSampler) peaks(t0, t1 int64, n int) ([]float64, error) {
	close(s.stop)
	s.done.Wait()
	if s.err != nil {
		return nil, s.err
	}
	byWin := make([][]float64, n)
	for i, at := range s.at {
		if at < t0 || at > t1 {
			continue
		}
		w := windowOf(at-t0, t1-t0, n)
		byWin[w] = append(byWin[w], s.mb[i])
	}
	out := make([]float64, n)
	for w, xs := range byWin {
		out[w] = percentile(xs, 0.9)
		if out[w] == 0 && w > 0 {
			out[w] = out[w-1]
		}
	}
	if out[0] == 0 {
		return nil, fmt.Errorf("no resident-set sample inside the timed phase")
	}
	return out, nil
}

func nowNS() int64 { return int64(time.Since(processStart)) }

var processStart = time.Now()

// windowOf returns which of n equal windows of a phase of total length
// the offset t falls in.
func windowOf(t, total int64, n int) int {
	if total <= 0 {
		return 0
	}
	w := int(t * int64(n) / total)
	if w < 0 {
		w = 0
	}
	if w >= n {
		w = n - 1
	}
	return w
}
