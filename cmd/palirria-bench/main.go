// palirria-bench regenerates the paper's evaluation figures and tables.
//
// Usage:
//
//	palirria-bench -fig 3            # DVS flow arrows
//	palirria-bench -fig 4            # workload input table
//	palirria-bench -fig 5            # simulator performance (a/b/c)
//	palirria-bench -fig 6            # simulator per-worker useful time
//	palirria-bench -fig 7            # Linux-model performance (a/b/c)
//	palirria-bench -fig 8            # Linux-model per-worker useful time
//	palirria-bench -fig 9            # allotment classifications
//	palirria-bench -summary          # headline PA-vs-AS aggregates
//	palirria-bench -ablations        # quantum/L/victim/filter/overhead
//	palirria-bench -multiprog        # multiprogrammed co-scheduling extension
//	palirria-bench -all              # everything above
//	palirria-bench -trace-out /tmp/fib.json -trace-workload fib
//
// The runtime's performance numbers come from bench/ (bash bench/run.sh);
// the chaos suite runs from go test ./internal/chaos.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"palirria"
	"palirria/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (1-9)")
	summary := flag.Bool("summary", false, "print the headline summary for both platforms")
	multiprog := flag.Bool("multiprog", false, "run the multiprogrammed co-scheduling extension")
	seeds := flag.Int("seeds", 1, "seeds per configuration; >1 reports the second-best run (the paper ran 10)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations")
	all := flag.Bool("all", false, "regenerate everything")
	traceOut := flag.String("trace-out", "", "trace one simulator run to a Chrome trace_event JSON file and exit")
	traceWL := flag.String("trace-workload", "fib", "workload for -trace-out")
	flag.Parse()

	if *traceOut != "" {
		if err := traceRun(*traceWL, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "palirria-bench:", err)
			os.Exit(1)
		}
		return
	}
	if !selectsOutput(*fig, *all || *summary || *ablations || *multiprog) {
		flag.Usage()
		os.Exit(2)
	}
	start := time.Now()
	if err := run(os.Stdout, *fig, *summary, *ablations, *multiprog, *all, *seeds); err != nil {
		fmt.Fprintln(os.Stderr, "palirria-bench:", err)
		os.Exit(1)
	}
	fmt.Printf("\n(total harness time: %s)\n", time.Since(start).Round(time.Millisecond))
}

// selectsOutput reports whether the flags ask run for anything: a figure
// the harness has (1-9), or — with no -fig — one of the table flags.
func selectsOutput(fig int, tables bool) bool {
	if fig == 0 {
		return tables
	}
	return 1 <= fig && fig <= 9
}

// traceRun executes one palirria-scheduled simulator run of the named
// workload with tracing and estimator introspection on, writes the Chrome
// trace, and prints the per-worker accounting table.
func traceRun(wl, path string) error {
	rep, err := palirria.RunSim(palirria.SimConfig{
		Workload:   wl,
		Scheduler:  "palirria",
		Observe:    true,
		Introspect: true,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Obs.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s under palirria: %d cycles, %d events, %d estimator snapshots -> %s\n",
		wl, rep.ExecCycles, len(rep.Obs.Events), len(rep.EstimatorTrace), path)
	rep.Metrics.WriteTable(os.Stdout)
	return nil
}

// run prints the selected figures and tables to out.
func run(out io.Writer, fig int, summary, ablations, multiprog, all bool, nseeds int) error {
	var seeds []uint64
	if nseeds > 1 {
		for i := 0; i < nseeds; i++ {
			seeds = append(seeds, uint64(9+i))
		}
	}
	var simSuite, linuxSuite []experiments.WorkloadRuns
	var err error
	needSim := all || summary || fig == 5 || fig == 6
	needLinux := all || summary || fig == 7 || fig == 8
	simP, linuxP := experiments.SimPlatform(), experiments.LinuxPlatform()
	if needSim {
		fmt.Fprintf(out, "running simulator-platform suite (7 workloads x 6 configs x %d seed(s))...\n", max(1, nseeds))
		if simSuite, err = experiments.RunSuite(simP, seeds); err != nil {
			return err
		}
	}
	if needLinux {
		fmt.Fprintf(out, "running Linux-model suite (7 workloads x 8 configs x %d seed(s))...\n", max(1, nseeds))
		if linuxSuite, err = experiments.RunSuite(linuxP, seeds); err != nil {
			return err
		}
	}

	show := func(n int) bool { return all || fig == n }
	if show(1) {
		if err := experiments.Fig1(out); err != nil {
			return err
		}
	}
	if show(2) {
		if err := experiments.Fig2(out); err != nil {
			return err
		}
	}
	if show(3) {
		if err := experiments.Fig3(out); err != nil {
			return err
		}
	}
	if show(4) {
		experiments.Fig4(out)
	}
	if show(5) {
		fmt.Fprintln(out, "\n================ Figure 5 ================")
		experiments.FigPerformance(out, simP, simSuite)
	}
	if show(6) {
		fmt.Fprintln(out, "\n================ Figure 6 ================")
		experiments.FigPerWorker(out, simP, simSuite, len(simP.FixedSizes)-1)
	}
	if show(7) {
		fmt.Fprintln(out, "\n================ Figure 7 ================")
		experiments.FigPerformance(out, linuxP, linuxSuite)
	}
	if show(8) {
		fmt.Fprintln(out, "\n================ Figure 8 ================")
		// The paper normalizes Fig. 8 to the 42-worker run (index 4).
		experiments.FigPerWorker(out, linuxP, linuxSuite, 4)
	}
	if show(9) {
		if err := experiments.Fig9(out); err != nil {
			return err
		}
	}
	if all || summary {
		fmt.Fprintln(out, "\n================ Summary ================")
		experiments.PrintSummary(out, simP, experiments.Summarize(simSuite))
		experiments.PrintSummary(out, linuxP, experiments.Summarize(linuxSuite))
	}
	if all || multiprog {
		fmt.Fprintln(out, "\n================ Multiprogrammed ================")
		rows, err := experiments.Multiprogrammed(simP.Quantum)
		if err != nil {
			return err
		}
		experiments.PrintMultiprogrammed(out, rows)
	}
	if all || ablations {
		fmt.Fprintln(out, "\n================ Ablations ================")
		ablations := []struct {
			title string
			run   func() ([]experiments.AblationRow, error)
		}{
			{"Quantum length (palirria, bursty workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationQuantum(simP, "bursty", []int64{5000, 20000, 50000, 200000, 800000})
			}},
			{"Threshold L = µ(O)+offset (palirria, fft workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationL(simP, "fft", []int{-1, 0, 1, 2})
			}},
			{"Victim selection at fixed 27 workers (fib workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationVictim(simP, "fib")
			}},
			{"False-positive filter (palirria, bursty workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationFilter(simP, "bursty")
			}},
			{"Stealable queue slots (palirria, stress workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationStealableSlots(simP, "stress", []int{1, 2, 4, 16, 64})
			}},
			{"Palirria requires DVS (bursty workload; random victims are invalid per §3.2)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationPalirriaNeedsDVS(simP, "bursty")
			}},
			{"Estimator families (strassen workload)", func() ([]experiments.AblationRow, error) {
				return experiments.AblationEstimators(simP, "strassen")
			}},
		}
		for _, a := range ablations {
			rows, err := a.run()
			if err != nil {
				return err
			}
			experiments.PrintAblation(out, a.title, rows)
		}
		orows, err := experiments.EstimatorOverhead(simP)
		if err != nil {
			return err
		}
		experiments.PrintOverhead(out, simP, orows)
	}
	return nil
}
