package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.1, 1}, {0.01, 1}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	// Nearest rank reports a measured value, never a point between modes.
	if got := percentile([]float64{1, 1, 1, 100, 100, 100}, 0.5); got != 1 {
		t.Errorf("bimodal p50 = %v, want one of the modes (1)", got)
	}
}

func TestMedianOfWindowsAndIQR(t *testing.T) {
	for _, tc := range []struct {
		ws          []float64
		median, iqr float64
	}{
		// IQRs are Python's statistics.quantiles(ws, n=4): q3 - q1.
		{[]float64{3, 1, 2, 5, 4}, 3, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 5.5},
		{[]float64{7}, 7, 0},
		{[]float64{2, 4}, 3, 3}, // q1 = 1.5, q3 = 4.5 by extrapolation, as Python does
	} {
		if m, q := median(tc.ws), iqr(tc.ws); m != tc.median || math.Abs(q-tc.iqr) > 1e-12 {
			t.Errorf("windows %v: median %v with IQR %v, want %v with IQR %v", tc.ws, m, q, tc.median, tc.iqr)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{0, 4, 9}); math.Abs(got-6) > 1e-9 {
		t.Errorf("geomean skips kinds without samples: got %v, want 6", got)
	}
}

func TestSchedule(t *testing.T) {
	arr := schedule([]phase{{"calm", 10, 1}, {"burst", 100, 0.5}}, 2)
	if len(arr) != 2*(10+50) {
		t.Fatalf("%d arrivals, want 120", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].due < arr[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if a := arr[10]; a.phase != 1 || a.window != 0 || a.due != 1e9 {
		t.Errorf("first burst arrival = %+v, want phase 1, window 0, due at 1 s", a)
	}
	if a := arr[60]; a.phase != 0 || a.window != 1 || a.due != 1.5e9 {
		t.Errorf("first arrival of the second cycle = %+v, want phase 0, window 1, due at 1.5 s", a)
	}
}

// A client that stalls must show up as lateness of the operations queued
// behind it, and their latency must still count from when they were due.
func TestOpenLoopChargesAStallToTheOperationsBehindIt(t *testing.T) {
	const n, gap, stall = 8, time.Millisecond, 12 * time.Millisecond
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(gap)
	}
	type rec struct{ due, sent, done int64 }
	recs := make([]rec, n)
	ol := realOpenLoop()
	ol.run(nowNS(), due, 1, func(i int, dueAbs, sent int64) {
		if i == 0 {
			time.Sleep(stall)
		}
		recs[i] = rec{dueAbs, sent, nowNS()}
	})
	for i, r := range recs {
		if r.sent < r.due {
			t.Errorf("operation %d left %d ns before it was due", i, r.due-r.sent)
		}
	}
	// Operation 1 was due 1 ms in but could not leave before the stall
	// ended; operation n-1 was due after most of it.
	late1, lateLast := recs[1].sent-recs[1].due, recs[n-1].sent-recs[n-1].due
	if late1 < int64(stall-2*gap) {
		t.Errorf("operation 1 ran %v late, want about %v: the stall was not charged to it", time.Duration(late1), stall-gap)
	}
	if lateLast >= late1 {
		t.Errorf("lateness grew from %v to %v although the client caught up", time.Duration(late1), time.Duration(lateLast))
	}
	if lat := recs[1].done - recs[1].due; lat < int64(stall-2*gap) {
		t.Errorf("operation 1's latency from its due time is %v: it hides the wait", time.Duration(lat))
	}
}

func TestOpenLoopPerOperationGoroutinesDoNotQueue(t *testing.T) {
	due := []int64{0, 0, 0, 0}
	var mu sync.Mutex
	running, peak := 0, 0
	realOpenLoop().run(nowNS(), due, 0, func(int, int64, int64) {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		running--
		mu.Unlock()
	})
	if peak != len(due) {
		t.Errorf("%d operations overlapped, want %d: an open loop does not wait for replies", peak, len(due))
	}
}

func TestSelfTimes(t *testing.T) {
	var spans []span
	// Ten jobs of 100 µs each: wait 10, call 80 of which run 50, and 10
	// nobody claims.
	for j := int64(0); j < 10; j++ {
		o := j * 1000_000
		spans = append(spans,
			span{"job", j, "", o, o + 100_000},
			span{"wait", j, "job", o, o + 10_000},
			span{"call", j, "job", o + 10_000, o + 90_000},
			span{"run", j, "call", o + 20_000, o + 70_000},
		)
	}
	b := selfTimes(spans, "job", nil)
	want := map[string]float64{"wait": 10, "call": 30, "run": 50}
	for name, w := range want {
		if got := b.SelfUS[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("self time of %s = %v µs, want %v", name, got, w)
		}
	}
	if math.Abs(b.UnattributedUS-10) > 1e-9 || b.RootP50US != 100 || b.GapPct > 1e-9 || b.Jobs != 10 {
		t.Errorf("budget = %+v, want 10 µs unattributed of a 100 µs p50 with no gap over 10 jobs", b)
	}
	// keep narrows the budget to one kind of job.
	if b := selfTimes(spans, "job", func(job int64) bool { return job < 3 }); b.Jobs != 3 {
		t.Errorf("budget over a kept subset counts %d jobs, want 3", b.Jobs)
	}
}

func TestPromSums(t *testing.T) {
	text := `# HELP palirria_steals_total x
# TYPE palirria_steals_total counter
palirria_steals_total{pool="a",worker="0"} 3
palirria_steals_total{pool="a",worker="1"} 4
palirria_allotment_workers 5
`
	got, err := promSums(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["palirria_steals_total"] != 7 || got["palirria_allotment_workers"] != 5 {
		t.Errorf("sums = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lowerM := metricDef{Name: "latency", Unit: "ms", Better: lower, Bound: 0.10}
	higherM := metricDef{Name: "rate", Unit: "1/s", Better: higher, Bound: 0.10}
	slackM := metricDef{Name: "setup", Unit: "s", Better: lower, Bound: 0.10, Slack: 1}
	for _, tc := range []struct {
		name  string
		d     metricDef
		a, b  value
		valid bool
		want  verdict
	}{
		{"within the bound", lowerM, value{Value: 100}, value{Value: 109}, true, verdictOK},
		{"better", lowerM, value{Value: 100}, value{Value: 50}, true, verdictOK},
		{"worse, lower is better", lowerM, value{Value: 100}, value{Value: 111}, true, verdictWorse},
		{"worse, higher is better", higherM, value{Value: 100}, value{Value: 89}, true, verdictWorse},
		{"higher is better and it rose", higherM, value{Value: 100}, value{Value: 150}, true, verdictOK},
		{"base spread wider than the bound", lowerM, value{Value: 100, IQR: 11}, value{Value: 100}, true, verdictUnresolved},
		{"new spread wider than the bound", lowerM, value{Value: 100}, value{Value: 130, IQR: 11}, true, verdictUnresolved},
		{"generator ran late", lowerM, value{Value: 100}, value{Value: 100}, false, verdictUnresolved},
		{"no base", lowerM, value{}, value{Value: 1}, true, verdictUnresolved},
		{"over the share but inside the absolute slack", slackM, value{Value: 0.5}, value{Value: 1.4}, true, verdictOK},
		{"over the absolute slack", slackM, value{Value: 0.5}, value{Value: 1.6}, true, verdictWorse},
	} {
		if got := judge(tc.d, tc.a, tc.b, tc.valid); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func syntheticSet(scale float64) *resultSet {
	s := &resultSet{Commit: "test", Workloads: map[string]*workloadEntry{}}
	for _, w := range workloads {
		p := newPass()
		for _, d := range endToEnd {
			v := 100.0
			if d.Better == lower {
				v *= scale
			} else {
				v /= scale
			}
			p.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
		}
		s.Workloads[w.Name] = &workloadEntry{EndToEnd: p, PerLayer: newPass()}
	}
	return s
}

func TestCompareSetsAndExitCode(t *testing.T) {
	base := syntheticSet(1)
	if worse, unresolved := compareSets(io.Discard, base, syntheticSet(1.01)); worse != 0 || unresolved != 0 {
		t.Errorf("1%% apart: %d worse, %d unresolved, want none", worse, unresolved)
	}
	var out bytes.Buffer
	worse, _ := compareSets(&out, base, syntheticSet(1.5))
	if want := len(workloads) * len(endToEnd); worse != want {
		t.Errorf("50%% apart: %d rows worse, want all %d", worse, want)
	}
	for _, wantText := range []string{"new/base", "serve_waves", "job_p50_ms", "worse"} {
		if !strings.Contains(out.String(), wantText) {
			t.Errorf("compare output lacks %q:\n%s", wantText, out.String())
		}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, syntheticSet(1.5)); err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	same, regressed := compareMain([]string{a, a}), compareMain([]string{a, b})
	os.Stdout = stdout
	if same != 0 || regressed != 1 {
		t.Errorf("compare exit codes: same set %d, regressed set %d; want 0 and 1", same, regressed)
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: bash bench/run.sh manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks the contract (duplicate, too long, or no direction)", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// Every workload at -scale tiny must emit every named metric of both
// passes, finite and with its unit, and pass its own output checks.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		if w.Name == clusterInfo.Name && testing.Short() {
			continue // builds and starts three daemons
		}
		for _, traced := range []bool{false, true} {
			rc := &runCtx{Seed: 7, Seconds: 0.5, Traced: traced, Tiny: true, Root: root,
				OutDir: out, BinDir: filepath.Join(out, "bin")}
			res, err := runPass(w, rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %+v (present %v), want a finite value in %s", w.Name, traced, d.Name, v, ok, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v.Value)
				}
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w.Name, traced, c.Name, c.Detail)
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
		}
	}
}
