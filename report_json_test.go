package palirria

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden JSON report")

// TestReportJSONGolden pins the machine-readable report schema byte for
// byte, for the palirria default and for the wool and asteal paths on
// both platforms. The simulator is deterministic for a fixed seed, so any
// diff here is either a schema change (update the golden deliberately)
// or a scheduling regression. Refresh with:
//
//	go test . -run ReportJSONGolden -update-golden
func TestReportJSONGolden(t *testing.T) {
	cases := []struct {
		golden string
		cfg    SimConfig
	}{
		{"report_fib.json", SimConfig{
			Workload:  "fib",
			Scheduler: "palirria",
			Quantum:   200_000, // few quanta keep the golden file small
			Seed:      9,
			Observe:   true,
		}},
		// wool at its default size: the platform's largest fixed size.
		{"report_skew_wool_sim32.json", SimConfig{
			Platform:  "sim32",
			Workload:  "skew",
			Scheduler: "wool",
			Seed:      9,
		}},
		{"report_uts_asteal_numa48.json", SimConfig{
			Platform:  "numa48",
			Workload:  "uts",
			Scheduler: "asteal",
			Quantum:   100_000,
			Seed:      9,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			rep, err := RunSim(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, data, "", "  "); err != nil {
				t.Fatal(err)
			}
			pretty.WriteByte('\n')

			path := filepath.Join("testdata", tc.golden)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, pretty.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update-golden to create)", err)
			}
			if !bytes.Equal(pretty.Bytes(), want) {
				t.Fatalf("report JSON drifted from golden %s:\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
					path, pretty.String(), string(want))
			}
		})
	}
}

// TestReportJSONShape spot-checks the fields downstream tools rely on,
// independent of the golden bytes.
func TestReportJSONShape(t *testing.T) {
	rep, err := RunSim(SimConfig{Workload: "fib", Quantum: 200_000, Observe: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		ExecCycles int64 `json:"exec_cycles"`
		Workers    map[string]struct {
			Total        int64            `json:"total_cycles"`
			FailedProbes int64            `json:"failed_probes"`
			Cycles       map[string]int64 `json:"cycles"`
		} `json:"workers"`
		Snapshots []struct {
			Estimator string `json:"estimator"`
			Decision  string `json:"decision"`
			Workers   []struct {
				Class string `json:"class"`
			} `json:"workers"`
		} `json:"estimator_trace"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ExecCycles <= 0 || len(out.Workers) == 0 {
		t.Fatalf("empty report: %+v", out)
	}
	for id, w := range out.Workers {
		if len(w.Cycles) == 0 {
			t.Fatalf("worker %s has no per-category cycles", id)
		}
		var sum int64
		for _, v := range w.Cycles {
			sum += v
		}
		if sum != w.Total {
			t.Fatalf("worker %s cycle categories sum to %d, total is %d", id, sum, w.Total)
		}
	}
	if len(out.Snapshots) == 0 {
		t.Fatal("no estimator snapshots despite Observe")
	}
	for _, s := range out.Snapshots {
		if s.Estimator != "palirria" {
			t.Fatalf("snapshot estimator = %q", s.Estimator)
		}
		switch s.Decision {
		case "increase", "keep", "decrease":
		default:
			t.Fatalf("snapshot decision = %q", s.Decision)
		}
		if len(s.Workers) == 0 {
			t.Fatal("snapshot has no per-worker introspection")
		}
	}
}
