package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"palirria/internal/asteal"
	"palirria/internal/core"
	"palirria/internal/metrics"
	"palirria/internal/task"
	"palirria/internal/topo"
	"palirria/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprints.json")

// fingerprintCase is one pinned configuration: exactly one of single and
// multi is set. Both build a fresh config per call (meshes and estimators
// carry state).
type fingerprintCase struct {
	name   string
	single func() Config
	multi  func() MultiConfig
}

// wl builds the named workload from an explicit (small) input.
func wl(name string, in workload.Input) *task.Spec {
	d, err := workload.Get(name)
	if err != nil {
		panic(err)
	}
	return d.Build(in)
}

// linuxMesh returns the paper's 8x6 real-hardware platform.
func linuxMesh() (*topo.Mesh, topo.CoreID) {
	m := topo.MustMesh(8, 6)
	m.Reserve(0, 1, 2)
	return m, topo.CoreID(28)
}

// wideRoot is a flat 64-way fan: with QueueCap 2 nearly every spawn takes
// the spawnInline arm.
func wideRoot() *task.Spec {
	leaves := make([]task.Builder, 64)
	for i := range leaves {
		leaves[i] = func() *task.Spec { return task.Leaf("leaf", 50) }
	}
	return task.SpawnJoin("wide", 10, leaves, 0, 10)
}

// fingerprintCases is the pinned set: every scheduler arm, both machine
// models, the inline-spawn, unfiltered, draining and leapfrog paths, a
// three-job multiprogrammed run, and internal/workload's own fib generator
// (the other fib cases use the test-local fibRoot). The two workload-fib
// cases were generated while that generator still built a fresh spec per
// task instance; sharing one spec per fib(k) must reproduce them.
func fingerprintCases() []fingerprintCase {
	stress := workload.Input{N: 2500, Grain: 400, Extra: []int64{5, 50}, Seed: 20}
	skew := workload.Input{N: 8, Grain: 400, Extra: []int64{6, 5}, Seed: 21}
	bursty := workload.Input{N: 6, Grain: 2500, Extra: []int64{48, 60000}}
	fft := workload.Input{N: 8 * 1024, Cutoff: 512, Grain: 1}
	strassen := workload.Input{N: 256, Cutoff: 128, Grain: 2, Extra: []int64{2}}
	sortIn := workload.Input{N: 16 * 1024, Cutoff: 1024, Grain: 1, Extra: []int64{4 * 1024}}
	sortNUMA := workload.Input{N: 32 * 1024, Cutoff: 1024, Grain: 1, Extra: []int64{4 * 1024}}
	fib := workload.Input{N: 16, Grain: 220, Extra: []int64{40}}

	return []fingerprintCase{
		{name: "palirria-dvs-stress", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("stress", stress),
				InitialDiaspora: 1, MaxDiaspora: 4, Estimator: core.NewPalirria(), Quantum: 20000}
		}},
		{name: "asteal-random-stress", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("stress", stress),
				InitialDiaspora: 1, MaxDiaspora: 4, Policy: "random", Seed: 3,
				Estimator: asteal.New(), Quantum: 20000}
		}},
		{name: "fixed-roundrobin-fib", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: fibRoot(16),
				InitialDiaspora: 3, Policy: "roundrobin"}
		}},
		{name: "fixed-dvs-fib-ideal48", single: func() Config {
			m, src := linuxMesh()
			return Config{Mesh: m, Source: src, Root: fibRoot(16), InitialDiaspora: 4}
		}},
		{name: "fixed-dvs-fft-numa", single: func() Config {
			m, src := linuxMesh()
			return Config{Mesh: m, Source: src, Root: wl("fft", fft),
				InitialDiaspora: 4, Machine: NewNUMA(m)}
		}},
		{name: "palirria-dvs-skew-numa", single: func() Config {
			m, src := linuxMesh()
			return Config{Mesh: m, Source: src, Root: wl("skew", skew),
				InitialDiaspora: 1, MaxDiaspora: 6, Machine: NewNUMA(m),
				Estimator: core.NewPalirria(), Quantum: 20000}
		}},
		{name: "queuecap2-wide", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wideRoot(),
				InitialDiaspora: 1, QueueCap: 2, StealableSlots: 2}
		}},
		{name: "queuecap2-fib", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: fibRoot(14),
				InitialDiaspora: 2, QueueCap: 2, StealableSlots: 2}
		}},
		{name: "palirria-nofilter-bursty", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("bursty", bursty),
				InitialDiaspora: 1, MaxDiaspora: 4, NoFilter: true,
				Estimator: core.NewPalirria(), Quantum: 15000}
		}},
		{name: "palirria-dvs-bursty", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("bursty", bursty),
				InitialDiaspora: 1, MaxDiaspora: 4,
				Estimator: core.NewPalirria(), Quantum: 15000}
		}},
		{name: "asteal-random-skew", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("skew", skew),
				InitialDiaspora: 2, MaxDiaspora: 4, Policy: "random", Seed: 11,
				Estimator: asteal.New(), Quantum: 20000}
		}},
		{name: "multi-three-jobs", multi: func() MultiConfig {
			m := multiMesh()
			return MultiConfig{Mesh: m, Quantum: 20000, Seed: 9, Jobs: []Job{
				{Name: "irregular", Source: m.ID(topo.Coord{X: 2, Y: 2}),
					Root: wl("strassen", strassen), Estimator: core.NewPalirria()},
				{Name: "parallel", Source: m.ID(topo.Coord{X: 6, Y: 2}),
					Root: wl("stress", stress), Estimator: asteal.New(), Policy: "random"},
				{Name: "phases", Source: m.ID(topo.Coord{X: 4, Y: 6}),
					Root: wl("sort", sortIn), FixedWorkers: 20, Policy: "roundrobin"},
			}}
		}},
		{name: "fixed-dvs-workload-fib", single: func() Config {
			m, src := simMesh()
			return Config{Mesh: m, Source: src, Root: wl("fib", fib), InitialDiaspora: 3}
		}},
		{name: "palirria-dvs-workload-fib-numa", single: func() Config {
			m, src := linuxMesh()
			return Config{Mesh: m, Source: src, Root: wl("fib", fib),
				InitialDiaspora: 1, MaxDiaspora: 6, Machine: NewNUMA(m),
				Estimator: core.NewPalirria(), Quantum: 20000}
		}},
		// Random victims under the NUMA model. Twice sortIn's size, so the
		// two spawned half merges carry 128 KB footprints: a cross-socket
		// steal of one reaches the migration cap (sortIn's 64 KB never
		// does), and the steals reach every StealPenalty arm.
		{name: "asteal-random-sort-numa", single: func() Config {
			m, src := linuxMesh()
			return Config{Mesh: m, Source: src, Root: wl("sort", sortNUMA),
				InitialDiaspora: 1, MaxDiaspora: 6, Policy: "random", Seed: 3,
				Machine: NewNUMA(m), Estimator: asteal.New(), Quantum: 20000}
		}},
	}
}

type workerPrint struct {
	ID     int   `json:"id"`
	Useful int64 `json:"useful"`
	Wasted int64 `json:"wasted"`
	Idle   int64 `json:"idle"`
}

type jobPrint struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	Finish int64  `json:"finish"`
}

// fingerprint is everything about a run that depends on event order.
type fingerprint struct {
	Name         string        `json:"name"`
	ExecCycles   int64         `json:"exec_cycles"`
	Events       int64         `json:"events"`
	Steals       int64         `json:"steals"`
	FailedProbes int64         `json:"failed_probes"`
	Tasks        int64         `json:"tasks"`
	Area         int64         `json:"area"`
	Jobs         []jobPrint    `json:"jobs,omitempty"`
	Workers      []workerPrint `json:"workers"`
}

func (fp *fingerprint) addWorkers(ws map[topo.CoreID]*metrics.WorkerStats) {
	for id, s := range ws {
		fp.Steals += s.Steals
		fp.FailedProbes += s.FailedProbes
		fp.Tasks += s.TasksRun
		fp.Workers = append(fp.Workers, workerPrint{
			ID: int(id), Useful: s.Useful(), Wasted: s.Wasted(), Idle: s.Cycles[metrics.Idle],
		})
	}
	sort.Slice(fp.Workers, func(i, j int) bool { return fp.Workers[i].ID < fp.Workers[j].ID })
}

// fingerprintOf runs c through the public entry points. For a
// multiprogrammed run ExecCycles is the makespan and Area sums each job's
// timeline to its own finish.
func fingerprintOf(t testing.TB, c fingerprintCase) fingerprint {
	t.Helper()
	fp := fingerprint{Name: c.name}
	if c.multi != nil {
		res, err := RunMulti(c.multi())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fp.ExecCycles, fp.Events = res.MakespanCycles, res.Events
		for _, jr := range res.Jobs {
			fp.Jobs = append(fp.Jobs, jobPrint{jr.Name, jr.StartCycles, jr.FinishCycles})
			fp.Area += jr.Timeline.Area(jr.FinishCycles)
		}
		fp.addWorkers(res.Workers)
		return fp
	}
	res := mustRun(t, c.single())
	fp.ExecCycles, fp.Events = res.ExecCycles, res.Events
	fp.Area = res.Timeline.Area(res.ExecCycles)
	fp.addWorkers(res.Workers)
	return fp
}

// TestEventOrderFingerprints pins the simulator's event order: any change
// to which activation fires when shows up in these counts. The golden was
// generated on the container/heap engine of PR 23; a queue or frame-lifetime
// change must reproduce it, not regenerate it. Refresh (only for a
// deliberate model change) with:
//
//	go test ./internal/sim -run EventOrderFingerprints -update-golden
func TestEventOrderFingerprints(t *testing.T) {
	var got []fingerprint
	for _, c := range fingerprintCases() {
		got = append(got, fingerprintOf(t, c))
	}
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "fingerprints.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if bytes.Equal(data, raw) {
		return
	}
	var want []fingerprint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s drifted from %s:\n got  %.600s\n want %.600s", got[i].Name, path, g, w)
		}
	}
}

// ranEngine builds c's engine the way Run/RunMulti do, runs it to
// completion and returns it for inspection.
func ranEngine(t testing.TB, c fingerprintCase) *engine {
	t.Helper()
	var e *engine
	var err error
	if c.multi != nil {
		e, err = setupMulti(c.multi())
	} else {
		e, err = setup(c.single())
	}
	if err == nil {
		err = e.run()
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return e
}

// TestQueueHoldsNoStaleSlots checks, after every pinned configuration, that
// the event queue is a sound winner tree holding at most each joined
// worker's own slot plus the tick: no superseded activation is ever left
// behind to be popped and dropped.
func TestQueueHoldsNoStaleSlots(t *testing.T) {
	for _, c := range fingerprintCases() {
		e := ranEngine(t, c)
		q := &e.queue
		if msg := checkTree(q); msg != "" {
			t.Errorf("%s: %s", c.name, msg)
		}
		joined, queued := 0, 0
		for id, k := range q.keys {
			if k != notQueued {
				queued++
			}
			switch {
			case id == int(e.tick):
			case id > int(e.tick):
				if k != notQueued {
					t.Errorf("%s: padding leaf %d is queued: %+v", c.name, id, k)
				}
			case e.workers[id] == nil:
				if k != notQueued {
					t.Errorf("%s: core %d never joined but is queued: %+v", c.name, id, k)
				}
			default:
				joined++
			}
		}
		if queued > joined+1 {
			t.Errorf("%s: %d slots queued for %d workers", c.name, queued, joined)
		}
	}
}

// TestEveryFrameIsCollectedOnce checks the frame lifetime on every pinned
// configuration — the inline-spawn, stolen-and-migrated and multiprogrammed
// ones included: when the run ends, every frame ever allocated is back on
// the free list, zeroed, except each job's root. (That the same runs also
// reproduce their fingerprints is what shows no frame was collected while
// still in use: collect nils the spec, so a late touch panics.)
func TestEveryFrameIsCollectedOnce(t *testing.T) {
	for _, c := range fingerprintCases() {
		e := ranEngine(t, c)
		if got, want := int64(len(e.freeFrames)+len(e.jobs)), e.framesMade; got != want {
			t.Errorf("%s: %d frames free + %d roots, but %d were allocated", c.name, len(e.freeFrames), len(e.jobs), want)
		}
		seen := map[*frame]bool{}
		for _, f := range e.freeFrames {
			if seen[f] {
				t.Fatalf("%s: frame collected twice", c.name)
			}
			seen[f] = true
			if f.spec != nil || f.parent != nil || f.waiter != nil || len(f.spawns) != 0 || f.done || f.pc != 0 {
				t.Fatalf("%s: collected frame not zeroed: %+v", c.name, f)
			}
		}
		for _, j := range e.jobs {
			if seen[j.rootFrame] || !j.rootFrame.done {
				t.Errorf("%s: job %s: root collected or not done", c.name, j.name)
			}
		}
	}
}

// TestFramesAreRecycled: a fib(18) run needs only as many frames as are
// live at once, not one per task.
func TestFramesAreRecycled(t *testing.T) {
	m, src := simMesh()
	e, err := setup(Config{Mesh: m, Source: src, Root: fibRoot(18), InitialDiaspora: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.run(); err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, ws := range e.workerStats() {
		tasks += ws.TasksRun
	}
	if e.framesMade*10 >= tasks {
		t.Fatalf("allocated %d frames for %d tasks, want fewer than a tenth", e.framesMade, tasks)
	}
	t.Logf("%d frames for %d tasks", e.framesMade, tasks)

	// On the warmed free list, a frame's whole life allocates nothing.
	spec := task.Leaf("leaf", 1)
	if n := testing.AllocsPerRun(1000, func() {
		f := e.newFrame(spec, src, nil)
		f.spawns = append(f.spawns, f)
		e.collect(f)
	}); n != 0 {
		t.Fatalf("frame-then-collect allocates %v times", n)
	}
}
