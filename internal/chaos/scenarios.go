package chaos

import (
	"palirria/internal/xrand"
)

// Scenario is a named adversarial pressure pattern. Plan draws every
// parameter from the seed up front; nothing is decided during execution.
type Scenario struct {
	Name        string
	Description string
	plan        func(sc *Script, rng *xrand.Xoshiro256)
}

// Plan expands the scenario under the given seed into a complete script.
func (s Scenario) Plan(seed uint64) *Script {
	sc := &Script{Scenario: s.Name, Seed: seed}
	s.plan(sc, xrand.NewXoshiro256(seed))
	return sc
}

// Scenarios returns the full suite, in a stable order.
func Scenarios() []Scenario { return scenarios }

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

var scenarios = []Scenario{
	{
		Name: "submit-shutdown",
		Description: "many submitters race trivial jobs against a Shutdown " +
			"fired mid-storm; every nil-returning Submit must resolve",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.MeshW, sc.MeshH = 4, 2
			sc.SubmitQueueCap = 32 + rng.Intn(97)
			sc.Submitters = 8 + rng.Intn(25)
			n := 300 + rng.Intn(300)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{Leaves: 1, ComputeNS: int64(rng.Intn(2000))})
			}
			sc.ShutdownAtUS = int64(100 + rng.Intn(2400))
		},
	},
	{
		Name: "revoke-storm",
		Description: "the worker cap is slammed to a random level every few " +
			"hundred microseconds while medium fans keep the deques loaded",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.DrainBacklog = true
			sc.MeshW, sc.MeshH = 6, 6
			sc.Source = 7
			sc.QuantumUS = int64(200 + rng.Intn(301))
			sc.SubmitQueueCap = 128
			sc.Submitters = 4
			n := 60 + rng.Intn(41)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    8 + rng.Intn(57),
					ComputeNS: int64(1000 + rng.Intn(4000)),
				})
			}
			at := int64(0)
			for i := 0; i < 40+rng.Intn(21); i++ {
				at += int64(200 + rng.Intn(601))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(37)})
			}
		},
	},
	{
		Name: "shrink-while-parked",
		Description: "bursts separated by idle valleys: the estimator shrinks " +
			"and workers park between bursts, then revokes land on parked " +
			"workers just as the next burst arrives",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.DrainBacklog = true
			sc.MeshW, sc.MeshH = 6, 6
			sc.Source = 14
			sc.QuantumUS = int64(200 + rng.Intn(201))
			sc.SubmitQueueCap = 128
			sc.Submitters = 3
			bursts := 5 + rng.Intn(4)
			at := int64(0)
			for b := 0; b < bursts; b++ {
				for i := 0; i < 6+rng.Intn(7); i++ {
					d := int64(0)
					if i == 0 && b > 0 {
						d = int64(2000 + rng.Intn(3001)) // the idle valley
					}
					sc.Jobs = append(sc.Jobs, JobSpec{
						Leaves:    4 + rng.Intn(29),
						ComputeNS: int64(500 + rng.Intn(2500)),
						DelayUS:   d,
					})
				}
				// A shrink lands inside each valley, a lift near each burst.
				at += int64(1500 + rng.Intn(2001))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: 1 + rng.Intn(5)})
				at += int64(500 + rng.Intn(1001))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: 0})
			}
		},
	},
	{
		Name: "shrink-with-work",
		Description: "wide fans keep every deque non-empty while the cap " +
			"oscillates between the full mesh and the zone-1 floor, forcing " +
			"drains that must conserve every task",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.DrainBacklog = true
			sc.MeshW, sc.MeshH = 4, 4
			sc.Source = 5
			sc.QuantumUS = int64(250 + rng.Intn(251))
			sc.SubmitQueueCap = 128
			sc.Submitters = 4
			n := 40 + rng.Intn(25)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    32 + rng.Intn(97),
					ComputeNS: int64(2000 + rng.Intn(6000)),
				})
			}
			at := int64(0)
			caps := []int{16, 1, 12, 5, 0, 1}
			for i := 0; i < 30+rng.Intn(11); i++ {
				at += int64(500 + rng.Intn(501))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: caps[rng.Intn(len(caps))]})
			}
		},
	},
	{
		Name: "rebuild-mid-steal",
		Description: "a continuous stream of small jobs keeps thieves probing " +
			"while cap flips every ~200µs force constant policy rebuilds; " +
			"retiring workers must purge themselves from the wake graph",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.DrainBacklog = true
			sc.MeshW, sc.MeshH = 6, 6
			sc.Source = 21
			sc.QuantumUS = int64(150 + rng.Intn(101))
			sc.SubmitQueueCap = 256
			sc.Submitters = 6
			n := 250 + rng.Intn(151)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    2 + rng.Intn(7),
					ComputeNS: int64(200 + rng.Intn(1300)),
				})
			}
			at := int64(0)
			for i := 0; i < 60+rng.Intn(41); i++ {
				at += int64(150 + rng.Intn(151))
				cap := 0
				if rng.Intn(3) > 0 {
					cap = 1 + rng.Intn(36)
				}
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: cap})
			}
		},
	},
	{
		Name: "queue-full-flush",
		Description: "a tiny submit queue under a hammering storm: rejections " +
			"must stay off the books, accepted jobs must all resolve through " +
			"the mid-storm shutdown flush",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.MeshW, sc.MeshH = 4, 2
			sc.SubmitQueueCap = 2 + rng.Intn(5)
			sc.Submitters = 12 + rng.Intn(21)
			sc.GiveUpOnFull = true
			n := 400 + rng.Intn(401)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{Leaves: 1 + rng.Intn(4), ComputeNS: int64(rng.Intn(3000))})
			}
			sc.ShutdownAtUS = int64(200 + rng.Intn(2800))
		},
	},
	{
		Name: "grow-burst",
		Description: "the runtime starts pinned at the zone-1 floor with wide " +
			"fans piling up, then the cap lifts mid-burst and the allotment " +
			"must grow into the backlog without losing a task",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.DrainBacklog = true
			sc.MeshW, sc.MeshH = 6, 6
			sc.Source = 0
			sc.QuantumUS = int64(200 + rng.Intn(201))
			sc.SubmitQueueCap = 128
			sc.Submitters = 4
			sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: 0, Cap: 1})
			n := 50 + rng.Intn(31)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    24 + rng.Intn(73),
					ComputeNS: int64(1000 + rng.Intn(4000)),
				})
			}
			lift := int64(1000 + rng.Intn(2001))
			sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: lift, Cap: 0})
			// And a few aftershocks while the backlog drains.
			at := lift
			for i := 0; i < 6+rng.Intn(5); i++ {
				at += int64(800 + rng.Intn(1201))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(37)})
			}
		},
	},
	{
		Name: "pool-drain-race",
		Description: "serve.Pool admission races a mid-storm Drain under cap " +
			"oscillation; admitted == completed + cancelled with nothing in " +
			"flight afterwards",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerPool
			sc.MeshW, sc.MeshH = 4, 4
			sc.Source = 5
			sc.QuantumUS = int64(250 + rng.Intn(251))
			sc.SubmitQueueCap = 128
			sc.PoolQueueCap = 16 + rng.Intn(49)
			sc.Submitters = 8 + rng.Intn(9)
			n := 120 + rng.Intn(81)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    4 + rng.Intn(29),
					ComputeNS: int64(500 + rng.Intn(3500)),
				})
			}
			at := int64(0)
			for i := 0; i < 10+rng.Intn(11); i++ {
				at += int64(300 + rng.Intn(501))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(17)})
			}
			sc.ShutdownAtUS = int64(1000 + rng.Intn(4001))
		},
	},
	{
		Name: "submit-shard-storm",
		Description: "a horde of batch submitters sprays jobs across the " +
			"per-worker injection shards while the cap oscillates and a " +
			"mid-storm shutdown races the flush; every accepted job's " +
			"onDone fires exactly once whether it ran, was stolen from a " +
			"sibling shard, or was drained by the shutdown flush",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerRuntime
			sc.MeshW, sc.MeshH = 6, 6
			sc.Source = 0
			sc.QuantumUS = int64(200 + rng.Intn(301))
			sc.SubmitQueueCap = 16 + rng.Intn(113)
			sc.Submitters = 8 + rng.Intn(9)
			sc.BatchSize = 2 + rng.Intn(7)
			sc.GiveUpOnFull = true
			n := 300 + rng.Intn(301)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    1 + rng.Intn(6),
					ComputeNS: int64(rng.Intn(2500)),
				})
			}
			at := int64(0)
			for i := 0; i < 8+rng.Intn(9); i++ {
				at += int64(200 + rng.Intn(401))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(37)})
			}
			sc.ShutdownAtUS = int64(800 + rng.Intn(3201))
		},
	},
	{
		Name: "stream-under-churn",
		Description: "event subscribers attach and detach against the pool's " +
			"hub while caps oscillate and a mid-storm Drain flushes the " +
			"queue; every admitted job must yield exactly one terminal event " +
			"or a counted drop, and nothing may land after a subscriber close",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerPool
			sc.MeshW, sc.MeshH = 4, 4
			sc.Source = 5
			sc.QuantumUS = int64(250 + rng.Intn(251))
			sc.SubmitQueueCap = 128
			sc.PoolQueueCap = 16 + rng.Intn(49)
			sc.Submitters = 6 + rng.Intn(7)
			// Tiny buffers force the drop path; churn fast enough that
			// detaches land inside the drain and the cap flips.
			sc.StreamSubs = 3 + rng.Intn(4)
			sc.StreamBuf = 1 + rng.Intn(8)
			sc.StreamChurnUS = int64(100 + rng.Intn(401))
			n := 120 + rng.Intn(81)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    2 + rng.Intn(15),
					ComputeNS: int64(500 + rng.Intn(2500)),
				})
			}
			at := int64(0)
			for i := 0; i < 10+rng.Intn(11); i++ {
				at += int64(300 + rng.Intn(501))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(17)})
			}
			sc.ShutdownAtUS = int64(1500 + rng.Intn(3501))
		},
	},
	{
		Name: "cluster-partition",
		Description: "a desire-steered router storms three loopback serve " +
			"nodes while one is killed abruptly mid-burst; accepted jobs must " +
			"all complete on survivors, terminal events stay exactly-once per " +
			"pool, and no submission is routed to the dead peer once gossip " +
			"suspicion confirms the death",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerCluster
			sc.MeshW, sc.MeshH = 4, 1
			sc.QuantumUS = 500
			sc.SubmitQueueCap = 128
			sc.PoolQueueCap = 64
			sc.Submitters = 4
			sc.ClusterNodes = 3
			sc.RouterRetries = 2
			sc.GossipEveryUS = int64(4000 + rng.Intn(3001))
			sc.SuspectAfterUS = 4 * sc.GossipEveryUS
			sc.DeadAfterUS = 2 * sc.SuspectAfterUS
			sc.KillNode = rng.Intn(3)
			sc.KillAtUS = int64(30000 + rng.Intn(20001))
			n := 550 + rng.Intn(101)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    2 + rng.Intn(7),
					ComputeNS: int64(1000 + rng.Intn(4000)),
					DelayUS:   int64(500 + rng.Intn(1201)),
				})
			}
		},
	},
	{
		Name: "tenancy-churn",
		Description: "two pools under one arbiter with fast re-arbitration; " +
			"one tenant drains mid-storm, the survivor keeps serving, and " +
			"every core returns to the free pool at the end",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerTenancy
			sc.MeshW, sc.MeshH = 8, 4
			sc.Source = 0
			sc.QuantumUS = int64(250 + rng.Intn(251))
			sc.SubmitQueueCap = 128
			sc.PoolQueueCap = 32
			sc.Submitters = 6
			sc.RearbEveryUS = int64(1000 + rng.Intn(2001))
			n := 100 + rng.Intn(61)
			for i := 0; i < n; i++ {
				sc.Jobs = append(sc.Jobs, JobSpec{
					Leaves:    4 + rng.Intn(21),
					ComputeNS: int64(500 + rng.Intn(3000)),
				})
			}
			sc.DrainFirstAtUS = int64(2000 + rng.Intn(4001))
		},
	},
	{
		Name: "dag-cancel-storm",
		Description: "a storm of small structured jobs — chains, fan-outs and " +
			"random forward graphs — races per-graph cancellations against the " +
			"release cascade while the cap oscillates; every admitted node must " +
			"resolve exactly once as completed or cancelled, with nothing in " +
			"flight after the drain",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerDAG
			sc.MeshW, sc.MeshH = 4, 2
			sc.Source = 0
			sc.QuantumUS = int64(250 + rng.Intn(251))
			// The runtime queue outsizes the pool queue so a released
			// successor can never bounce off the submit ring: every admitted
			// node's fate is decided by completion or cancellation alone.
			sc.SubmitQueueCap = 256
			// Tight enough that concurrent graphs sometimes lose the
			// all-or-nothing slot grab and bounce whole.
			sc.PoolQueueCap = 12 + rng.Intn(13)
			sc.Submitters = 6 + rng.Intn(5)
			nDAGs := 36 + rng.Intn(29)
			for i := 0; i < nDAGs; i++ {
				var d DAGSpec
				n := 3 + rng.Intn(6)
				shape := rng.Intn(3)
				for k := 0; k < n; k++ {
					// Heavy leaves (tens of microseconds each) keep a graph
					// alive across its planned cancel point, so cancellation
					// actually races the release cascade instead of arriving
					// after the sink completed.
					ns := DAGNodeSpec{
						Leaves:    1 + rng.Intn(8),
						ComputeNS: int64(20_000 + rng.Intn(180_001)),
						Class:     rng.Intn(3),
					}
					switch {
					case k == 0:
						// Root.
					case shape == 0: // chain
						ns.Deps = []int{k - 1}
					case shape == 1: // root fans out, the sink joins every middle node
						if k < n-1 {
							ns.Deps = []int{0}
						} else {
							for m := 1; m < n-1; m++ {
								ns.Deps = append(ns.Deps, m)
							}
						}
					default: // random forward edges
						picks := 1 + rng.Intn(2)
						for t := 0; t < picks; t++ {
							dep := rng.Intn(k)
							dup := false
							for _, have := range ns.Deps {
								if have == dep {
									dup = true
								}
							}
							if !dup {
								ns.Deps = append(ns.Deps, dep)
							}
						}
					}
					d.Nodes = append(d.Nodes, ns)
				}
				d.DelayUS = int64(rng.Intn(1501))
				if rng.Intn(2) == 0 {
					d.CancelAtUS = int64(100 + rng.Intn(1401))
				}
				sc.DAGs = append(sc.DAGs, d)
			}
			at := int64(0)
			for i := 0; i < 8+rng.Intn(9); i++ {
				at += int64(300 + rng.Intn(501))
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: rng.Intn(9)})
			}
		},
	},
	{
		Name: "priority-deadline-churn",
		Description: "a classed submit storm against a tiny queue with the cap " +
			"slammed to one core arms the shed ladder over and over while " +
			"deadlines churn; the hub-ordered admission log must show no " +
			"high-class shed in a window where a lower class was still being " +
			"admitted (level stamps), and the per-class ledgers must balance",
		plan: func(sc *Script, rng *xrand.Xoshiro256) {
			sc.Layer = LayerPool
			sc.MeshW, sc.MeshH = 4, 1
			sc.Source = 0
			sc.QuantumUS = int64(150 + rng.Intn(101))
			sc.SubmitQueueCap = 128
			sc.PoolQueueCap = 4 + rng.Intn(5)
			sc.ShedQuanta = 2
			sc.AuditClassEvents = true
			sc.StreamBuf = 4096
			sc.Submitters = 8 + rng.Intn(5)
			n := 240 + rng.Intn(121)
			for i := 0; i < n; i++ {
				js := JobSpec{
					Leaves:    2 + rng.Intn(15),
					ComputeNS: int64(2000 + rng.Intn(6001)),
					Class:     rng.Intn(3),
					DelayUS:   int64(rng.Intn(400)),
				}
				if rng.Intn(3) == 0 {
					js.DeadlineUS = int64(300 + rng.Intn(4701))
				}
				sc.Jobs = append(sc.Jobs, js)
			}
			// Hold the mesh at one core for long stretches so desire pins at
			// capacity and the ladder arms, with brief lifts to drain.
			at := int64(0)
			for i := 0; i < 10+rng.Intn(7); i++ {
				at += int64(400 + rng.Intn(601))
				cap := 1
				if i%3 == 2 {
					cap = 0
				}
				sc.CapEvents = append(sc.CapEvents, CapEvent{AtUS: at, Cap: cap})
			}
		},
	},
}
