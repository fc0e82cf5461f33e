package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// The suite's seed range, for CI and for replaying a red run:
//
//	go test -race ./internal/chaos -run 'TestScenariosUpholdInvariants/<name>' -chaos.seed S -chaos.seeds 1
var (
	chaosSeed  = flag.Uint64("chaos.seed", 1, "first seed for TestScenariosUpholdInvariants when -chaos.seeds is set")
	chaosSeeds = flag.Int("chaos.seeds", 0, "seeds per scenario, consecutive from -chaos.seed; 0 runs the fixed pair {1, 42}")
)

// seedList is the seeds each scenario runs under: first..first+n-1, or the
// fixed pair when n is 0; -short keeps only the first either way.
func seedList(first uint64, n int, short bool) []uint64 {
	seeds := []uint64{1, 42}
	if n > 0 {
		seeds = make([]uint64, n)
		for i := range seeds {
			seeds[i] = first + uint64(i)
		}
	}
	if short {
		seeds = seeds[:1]
	}
	return seeds
}

// failureMessage is everything needed to replay a violation from the log
// alone: scenario, seed, what broke and the fully expanded script.
func failureMessage(sc *Script, res *Result) string {
	return fmt.Sprintf("scenario %s seed %d: %d violation(s):\n  %s\nreplay script:\n%s",
		sc.Scenario, sc.Seed, len(res.Violations), strings.Join(res.Violations, "\n  "), sc.Marshal())
}

// TestScriptPlanningIsDeterministic is the replay guarantee: the same
// (scenario, seed) pair must expand to byte-identical script JSON, so a
// printed seed is a complete reproduction of the adversarial pressure.
func TestScriptPlanningIsDeterministic(t *testing.T) {
	for _, s := range Scenarios() {
		for _, seed := range []uint64{1, 0xdeadbeef, 0x9e3779b97f4a7c15} {
			a := s.Plan(seed).Marshal()
			b := s.Plan(seed).Marshal()
			if !bytes.Equal(a, b) {
				t.Errorf("%s seed %#x: planning is not deterministic", s.Name, seed)
			}
		}
	}
}

// TestScenarioSuiteIsLargeEnough pins the acceptance floor: the suite must
// cover grow, shrink, revoke-mid-drain and submit/drain/shutdown races.
func TestScenarioSuiteIsLargeEnough(t *testing.T) {
	if n := len(Scenarios()); n < 8 {
		t.Fatalf("suite has %d scenarios, want at least 8", n)
	}
	for _, name := range []string{"submit-shutdown", "shrink-with-work", "revoke-storm", "grow-burst"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("required scenario %q missing", name)
		}
	}
}

// TestScenariosUpholdInvariants runs every scenario under the seeds the
// -chaos.seed/-chaos.seeds flags select and requires a clean conservation
// ledger. On a violation it prints the full replay script — (scenario,
// seed) is the repro.
func TestScenariosUpholdInvariants(t *testing.T) {
	seeds := seedList(*chaosSeed, *chaosSeeds, testing.Short())
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, seed := range seeds {
				sc := s.Plan(seed)
				if res := Run(sc, 90*time.Second); !res.Ok() {
					t.Error(failureMessage(sc, res))
				}
			}
		})
	}
}

// TestSeedFlagsAndFailureMessage pins the seed range the two flags select
// and that a red run's message is a complete repro on its own: scenario,
// seed, violations and the expanded script.
func TestSeedFlagsAndFailureMessage(t *testing.T) {
	for _, c := range []struct {
		first uint64
		n     int
		short bool
		want  []uint64
	}{
		{1, 0, false, []uint64{1, 42}},
		{1, 0, true, []uint64{1}},
		{7, 3, false, []uint64{7, 8, 9}},
		{7, 3, true, []uint64{7}},
		{7, 1, false, []uint64{7}},
	} {
		if got := seedList(c.first, c.n, c.short); !slices.Equal(got, c.want) {
			t.Errorf("seedList(%d, %d, short=%v) = %v, want %v", c.first, c.n, c.short, got, c.want)
		}
	}

	sc := Scenarios()[0].Plan(7)
	msg := failureMessage(sc, &Result{Violations: []string{"lost job 3", "ledger off by one"}})
	for _, want := range []string{sc.Scenario, "seed 7", "lost job 3", "ledger off by one", string(sc.Marshal())} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure message lacks %q:\n%s", want, msg)
		}
	}
}
