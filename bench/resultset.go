package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// resultSet is one full run of the benchmark: every workload, both passes,
// and what it was measured on.
type resultSet struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Started    string  `json:"started"`
	// Order is the order the workloads ran in; selfcheck alternates it.
	Order     []string                  `json:"order"`
	Workloads map[string]*workloadEntry `json:"workloads"`
}

type workloadEntry struct {
	Why      string      `json:"why"`
	EndToEnd *passResult `json:"end_to_end"`
	PerLayer *passResult `json:"per_layer"`
}

func (s *resultSet) correct() bool {
	for _, w := range s.Workloads {
		if !w.EndToEnd.correct() || !w.PerLayer.correct() {
			return false
		}
	}
	return true
}

// commitOf names the commit the numbers belong to; a checkout that is not
// a git repository (the driver's) has none.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSet runs both passes over the given workloads, in the given order.
func runSet(base *runCtx, order []benchWorkload) (*resultSet, error) {
	set := &resultSet{
		Commit: commitOf(base.Root), Seed: base.Seed, Seconds: base.Seconds, Scale: "full",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Started:   time.Now().UTC().Format(time.RFC3339),
		Workloads: map[string]*workloadEntry{},
	}
	if base.Tiny {
		set.Scale = "tiny"
	}
	for _, w := range order {
		set.Order = append(set.Order, w.Name)
		entry := &workloadEntry{Why: w.Why}
		for _, traced := range []bool{false, true} {
			rc := *base
			rc.Traced = traced
			// Each pass starts from a resident set without its
			// predecessors' freed heap, as it does in a process of its own
			// (the driver's form): peak_rss_mb must not depend on the order.
			debug.FreeOSMemory()
			res, err := runPass(w, &rc)
			if err != nil {
				return nil, err
			}
			printPass(w.Name, &rc, res)
			if traced {
				entry.PerLayer = res
			} else {
				entry.EndToEnd = res
			}
		}
		set.Workloads[w.Name] = entry
	}
	return set, nil
}

// selfcheckMain runs the full set twice, the second time in reverse order,
// and puts the pair through compare: two runs of one commit must agree.
func selfcheckMain(base *runCtx) int {
	reversed := make([]benchWorkload, len(workloads))
	for i, w := range workloads {
		reversed[len(workloads)-1-i] = w
	}
	var paths []string
	for i, order := range [][]benchWorkload{workloads, reversed} {
		set, err := runSet(base, order)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		path := filepath.Join(base.OutDir, fmt.Sprintf("selfcheck-%c.json", 'a'+i))
		if err := writeJSON(path, set); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		paths = append(paths, path)
	}
	return compareMain(paths)
}

// verdict is what compare says about one (workload, metric) row.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge applies a metric's bound to a base value a and a new value b.
// The bound is a share of the base, or the metric's absolute slack where
// that is more. A window spread wider than the bound,
// on either side, or an invalid pass, means the pair cannot tell a
// regression of that size from noise: unresolved, never "unchanged".
func judge(d metricDef, a, b value, valid bool) verdict {
	if a.Value == 0 {
		return verdictUnresolved
	}
	limit := max(d.Bound*math.Abs(a.Value), d.Slack)
	if !valid || a.IQR > limit || b.IQR > limit {
		return verdictUnresolved
	}
	worse := b.Value - a.Value
	if d.Better == higher {
		worse = -worse
	}
	if worse > limit {
		return verdictWorse
	}
	return verdictOK
}

// compareSets prints one row per (workload, end-to-end metric) and returns
// how many rows were worse and how many unresolved.
func compareSets(w io.Writer, a, b *resultSet) (worse, unresolved int) {
	fmt.Fprintf(w, "base %s (seed %d)  ->  new %s (seed %d); every ratio is new/base\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-15s %-22s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "new", "ratio", "bound", "verdict")
	for _, wl := range workloads {
		ea, eb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ea == nil || eb == nil || ea.EndToEnd == nil || eb.EndToEnd == nil {
			fmt.Fprintf(w, "%-15s missing from one side: unresolved\n", wl.Name)
			unresolved++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ea.EndToEnd.Metrics[d.Name], eb.EndToEnd.Metrics[d.Name]
			v := judge(d, va, vb, ea.EndToEnd.Valid && eb.EndToEnd.Valid)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			note := ""
			if len(va.Windows) > 0 {
				note = fmt.Sprintf("  window IQR base %.3g new %.3g", va.IQR, vb.IQR)
			}
			fmt.Fprintf(w, "%-15s %-22s %12.5g %12.5g %8.4f %6.0f%%  %s%s\n",
				wl.Name, d.Name, va.Value, vb.Value, ratio(vb.Value, va.Value), 100*d.Bound, v, note)
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved\n", worse, unresolved)
	return worse, unresolved
}

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain is `bench compare A.json B.json`: exit 1 on any worse row.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json NEW.json")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if worse, _ := compareSets(os.Stdout, a, b); worse > 0 {
		return 1
	}
	return 0
}
