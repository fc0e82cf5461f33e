// palirria-sim runs a single workload configuration on the simulator and
// prints its report.
//
// Usage:
//
//	palirria-sim -workload fib -scheduler palirria -platform sim32
//	palirria-sim -workload sort -scheduler wool -workers 27
//	palirria-sim -workload bursty -scheduler asteal -quantum 20000 -timeline
//	palirria-sim -workload fib -trace-out /tmp/fib.json   # chrome://tracing
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"palirria"
)

func main() {
	wl := flag.String("workload", "fib", "workload name ("+strings.Join(palirria.Workloads(), ", ")+")")
	sched := flag.String("scheduler", "palirria", "scheduler: wool, asteal, palirria")
	platform := flag.String("platform", "sim32", "platform: sim32, numa48")
	workers := flag.Int("workers", 0, "fixed allotment size (wool only): a complete allotment size; 0 = the largest")
	quantum := flag.Int64("quantum", 0, "estimation interval in cycles (default 50000)")
	seed := flag.Uint64("seed", 9, "seed for random victim selection")
	timeline := flag.Bool("timeline", false, "print the allotment timeline")
	traceN := flag.Int("trace", 0, "print the last N scheduler trace events")
	perWorker := flag.Bool("per-worker", false, "print per-worker cycle accounting")
	asJSON := flag.Bool("json", false, "emit the full report as JSON")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file (open in chrome://tracing or Perfetto)")
	flag.Parse()

	rep, err := palirria.RunSim(palirria.SimConfig{
		Platform:     *platform,
		Workload:     *wl,
		Scheduler:    *sched,
		FixedWorkers: *workers,
		Quantum:      *quantum,
		Seed:         *seed,
		TraceCap:     *traceN,
		Observe:      *traceOut != "",
		// JSON reports and Chrome traces both carry the estimator
		// introspection snapshots.
		Introspect: *asJSON || *traceOut != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "palirria-sim:", err)
		os.Exit(1)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "palirria-sim:", err)
			os.Exit(1)
		}
		if err := rep.Obs.WriteChrome(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "palirria-sim:", err)
			os.Exit(1)
		}
		if !*asJSON {
			fmt.Printf("trace:         %d events, %d estimator snapshots -> %s\n",
				len(rep.Obs.Events), len(rep.EstimatorTrace), *traceOut)
		}
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "palirria-sim:", err)
			os.Exit(1)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("workload:      %s on %s under %s\n", *wl, *platform, *sched)
	fmt.Printf("exec cycles:   %d\n", rep.ExecCycles)
	fmt.Printf("workers:       max %d, avg %.1f\n", rep.MaxWorkers, rep.AvgWorkers)
	fmt.Printf("wastefulness:  %.2f%%\n", rep.WastefulnessPercent)
	fmt.Printf("tasks:         %d  (steals %d, failed probes %d)\n",
		rep.Tasks, rep.Steals, rep.FailedProbes)

	if *timeline {
		fmt.Println("\nallotment timeline (time -> workers):")
		for _, p := range rep.Timeline.Points() {
			fmt.Printf("  %12d  %d\n", p.Time, p.Workers)
		}
	}
	if *traceN > 0 {
		fmt.Printf("\nlast %d scheduler events:\n", len(rep.Trace))
		palirria.WriteSimTrace(os.Stdout, rep.Trace)
	}
	if *perWorker {
		fmt.Println("\nper-worker accounting:")
		rep.Metrics.WriteTable(os.Stdout)
	}
}
