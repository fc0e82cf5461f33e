// Command bench is the repository's one benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and a per-layer budget
// measured from outside by timing calls into public functions and by
// driving the two daemons over loopback. README.md says why each workload
// and metric exists; BENCHMARK.json fixes names, units and bounds.
//
//	bash bench/run.sh                          all workloads, both passes
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh -selfcheck
//	bash bench/run.sh manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// benchWorkload is one set of inputs the benchmark runs.
type benchWorkload struct {
	workloadInfo
	run func(*runCtx) (*passResult, error)
}

var workloads = []benchWorkload{
	{simInfo, runSim},
	{forkjoinInfo, runForkjoin},
	{wavesInfo, runWaves},
	{dagInfo, runDAG},
	{clusterInfo, runCluster},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// passTimeout is the hard limit on one pass over one workload; a pass that
// reaches it is killed with everything it started.
const passTimeout = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "manifest" {
		data, err := manifest()
		if err != nil {
			fatalf("%v", err)
		}
		os.Stdout.Write(data)
		return
	}
	var (
		name      = flag.String("workload", "", "run one pass over this workload and print its result as the last line (the driver's form)")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "0: end-to-end pass; 1: traced per-layer pass")
		scale     = flag.String("scale", "full", "full, or tiny for the smallest run that still emits every metric")
		out       = flag.String("out", "", "result file for the all-workloads form (default bench/out/result.json)")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice in alternating order and compare the two")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *scale != "full" && *scale != "tiny" {
		fatalf("-scale must be full or tiny")
	}
	root, err := findRoot()
	if err != nil {
		fatalf("%v", err)
	}
	base := runCtx{
		Seed:    *seed,
		Seconds: *seconds,
		Tiny:    *scale == "tiny",
		Root:    root,
		OutDir:  filepath.Join(root, "bench", "out"),
		BinDir:  filepath.Join(root, "bench", "out", "bin"),
	}
	if base.Tiny {
		base.Seconds = min(base.Seconds, 1)
	}
	stopOnSignal()

	switch {
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		rc := base
		rc.Traced = *trace == 1
		os.Exit(driverPass(w, &rc))
	case *selfcheck:
		os.Exit(selfcheckMain(&base))
	default:
		path := *out
		if path == "" {
			path = filepath.Join(base.OutDir, "result.json")
		}
		set, err := runSet(&base, workloads)
		if err != nil {
			fatalf("%v", err)
		}
		if err := writeJSON(path, set); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("result set -> %s\n", path)
		if !set.correct() {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	killChildren()
	os.Exit(2)
}

// findRoot locates the repository root: the benchmark builds the daemons
// from it and writes under bench/out inside it. It accepts being started
// from the root or from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "palirria-serve", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no repository around %s: cmd/palirria-serve is missing, and the benchmark measures that program", wd)
}

// stopOnSignal makes an interrupted benchmark take its daemons with it.
func stopOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-ch
		killChildren()
		fmt.Fprintf(os.Stderr, "bench: %v\n", s)
		os.Exit(130)
	}()
}

// runPass runs one pass under the hard timeout and with a deferred sweep
// of child processes, so neither a hang nor a panic leaves a daemon
// behind.
func runPass(w benchWorkload, rc *runCtx) (res *passResult, err error) {
	watchdog := time.AfterFunc(passTimeout, func() {
		killChildren()
		fmt.Fprintf(os.Stderr, "bench: %s: pass exceeded %v, killed; goroutines at that moment:\n", w.Name, passTimeout)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // a hang is only a finding with its stacks
		os.Exit(3)
	})
	defer watchdog.Stop()
	defer func() {
		if p := recover(); p != nil {
			killChildren()
			panic(p)
		}
		killChildren()
	}()
	res, err = w.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	defs := endToEnd
	if rc.Traced {
		if err := layerMicro(rc, res); err != nil {
			return nil, fmt.Errorf("%s: layer micro-benchmarks: %w", w.Name, err)
		}
		defs = perLayer
	}
	if err := res.finish(defs); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return res, nil
}

// driverPass is the form BENCHMARK.json's command runs: one pass, every
// metric printed by name with its unit, then one JSON object as the last
// line of standard output.
func driverPass(w benchWorkload, rc *runCtx) int {
	res, err := runPass(w, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printPass(w.Name, rc, res)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]mv{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.correct() {
		return 1
	}
	return 0
}

func printPass(name string, rc *runCtx, res *passResult) {
	kind := "end-to-end"
	defs := endToEnd
	if rc.Traced {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("== %s · %s pass · seed %d · %.0f s timed · nproc %d ==\n", name, kind, rc.Seed, rc.Seconds, runtime.NumCPU())
	for _, d := range defs {
		v := res.Metrics[d.Name]
		extra := ""
		if len(v.Windows) > 0 {
			extra = fmt.Sprintf("   windows %s  window IQR %.4g", fmtFloats(v.Windows), v.IQR)
		}
		if v.Samples > 0 {
			extra += fmt.Sprintf("   samples %d", v.Samples)
		}
		fmt.Printf("  %-32s %14.6g %-10s%s\n", d.Name, v.Value, v.Unit, extra)
	}
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var b strings.Builder
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(res.Notes[k]) // notes are plain values
		fmt.Printf("  note %-24s %s", k, b.String())
	}
	for _, c := range res.Checks {
		state := "ok"
		if !c.OK {
			state = "FAILED: " + c.Detail
		}
		fmt.Printf("  check %-40s %s\n", c.Name, state)
	}
	if !res.Valid {
		fmt.Printf("  INVALID: the generator ran late (load.late_p90_ms over 1 ms); these numbers describe the generator\n")
	}
	fmt.Printf("  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.correct())
}

func fmtFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s + "]"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
