package workload

import (
	"fmt"

	"palirria/internal/task"
)

// Stress strains the runtime by varying the grain size, as the paper
// describes, while keeping the task tree balanced. The root fans out into
// batches; each batch spawns leaves whose grain cycles deterministically
// through a spread of sizes. Input fields: N = total leaf tasks, Grain =
// base leaf work, Extra[0] = grain spread factor, Extra[1] = batch width.
//
// The paper's parameters ("10000,20,1,1" on Barrelfish, "10000,44,3" on
// Linux) map to N, Grain (scaled), spread and width.
var Stress = register(&Def{
	Name:            "stress",
	Profile:         "strains the runtime by varying the grain size; fine grained, spawns enough tasks early",
	PaperInputSim:   "input 10000,20,1,1",
	PaperInputLinux: "input 10000,44,3",
	Build:           buildStress,
	Inputs: map[Platform]Input{
		Simulator: {N: 10000, Grain: 400, Extra: []int64{5, 50}, Seed: 20},
		NUMA:      {N: 10000, Grain: 880, Extra: []int64{5, 50}, Seed: 44},
	},
})

func buildStress(in Input) *task.Spec {
	spread, width := int64(5), int64(50)
	if len(in.Extra) > 0 {
		spread = in.Extra[0]
	}
	if len(in.Extra) > 1 {
		width = in.Extra[1]
	}
	batches := (in.N + width - 1) / width
	fans := stressFans{grain: in.Grain, spread: spread, built: map[stressKey]task.Builder{}}
	children := make([]task.Builder, batches)
	for b := int64(0); b < batches; b++ {
		children[b] = fans.get(b*width, width)
	}
	return task.SpawnJoin("stress", 64, children, 0, 64)
}

// stressKey names a fan by what its subtree depends on: the phase of its
// first leaf's grain cycle and its width.
type stressKey struct{ phase, width int64 }

// stressFans builds each distinct fan once, while Build runs, and hands
// out builders that return the shared spec: every batch is a nested
// binary fan over width leaves (so stolen subtrees repopulate thieves'
// queues and the load can flow across the whole allotment), and a fan's
// tree depends only on its stressKey.
type stressFans struct {
	grain, spread int64
	built         map[stressKey]task.Builder
}

// get returns the builder of the fan over the width leaves starting at
// global leaf index base.
func (f *stressFans) get(base, width int64) task.Builder {
	k := stressKey{base % f.spread, width}
	if b, ok := f.built[k]; ok {
		return b
	}
	var s *task.Spec
	if width <= 1 {
		// Grain varies cyclically with the leaf's global index: the
		// deterministic "varying grain size" stressor.
		s = task.Leaf("stress-leaf", f.grain*(1+k.phase))
	} else {
		half := width / 2
		s = &task.Spec{
			Label: fmt.Sprintf("stress-fan %d", width),
			Ops: []task.Op{
				task.Spawn(f.get(base, half)),
				task.Spawn(f.get(base+half, width-half)),
				task.Sync(),
				task.Sync(),
			},
		}
	}
	s.Footprint = 128
	b := func() *task.Spec { return s }
	f.built[k] = b
	return b
}

// Skew is the paper's adaptation of Stress that produces an unbalanced task
// tree: child i of every interior node receives a depth budget shrinking
// with i, so the first children root deep subtrees while later children
// terminate immediately — load concentrates on few paths and fluctuates as
// those paths unwind. Input fields: N = depth budget of the root, Grain =
// leaf work, Extra[0] = branching factor, Extra[1] = grain spread.
var Skew = register(&Def{
	Name:            "skew",
	Profile:         "Stress variant with an unbalanced task tree",
	PaperInputSim:   "input 10000,20,1,1",
	PaperInputLinux: "input 10000,44,3",
	Build:           buildSkew,
	Inputs: map[Platform]Input{
		Simulator: {N: 9, Grain: 400, Extra: []int64{6, 5}, Seed: 21},
		NUMA:      {N: 10, Grain: 880, Extra: []int64{6, 5}, Seed: 45},
	},
})

func buildSkew(in Input) *task.Spec {
	branch, spread := int64(6), int64(5)
	if len(in.Extra) > 0 {
		branch = in.Extra[0]
	}
	if len(in.Extra) > 1 {
		spread = in.Extra[1]
	}
	return skewSpec(in, in.N, branch, spread, 0)
}

func skewSpec(in Input, depth, branch, spread int64, path uint64) *task.Spec {
	h := shapeHash(in.Seed, path)
	if depth <= 0 {
		s := task.Leaf("skew-leaf", varyGrain(in.Grain, h, spread))
		s.Footprint = 128
		return s
	}
	children := make([]task.Builder, branch)
	for i := int64(0); i < branch; i++ {
		i := i
		cp := childPath(path, int(i))
		children[i] = func() *task.Spec {
			// Child i gets depth-(i+1): child 0 roots a deep subtree,
			// the last children are leaves. This is the skew.
			return skewSpec(in, depth-i-1, branch, spread, cp)
		}
	}
	return task.SpawnJoin(fmt.Sprintf("skew d%d", depth),
		varyGrain(in.Grain/4, h, spread), children, 0, in.Grain/8)
}

// Loopy reproduces the LOOPY program from Sen's thesis that §4.1.1 of the
// paper discusses: a long serial chain in which each link spawns exactly one
// small stealable task and continues, so the program looks busy while no
// worker's queue ever holds more than one task. An estimator that requests
// workers on queue depth alone must not grow the allotment here; Palirria's
// L = µ(O_i) bound is what prevents it. Input fields: N = chain length,
// Grain = work per link, Extra[0] = side-task work.
var Loopy = register(&Def{
	Name:            "loopy",
	Profile:         "adversarial: looks highly parallel, but queues never hold more than one task",
	PaperInputSim:   "(from Sen 2004, §4.1.1 discussion)",
	PaperInputLinux: "(from Sen 2004, §4.1.1 discussion)",
	Build:           buildLoopy,
	Inputs: map[Platform]Input{
		Simulator: {N: 4000, Grain: 600, Extra: []int64{300}},
		NUMA:      {N: 8000, Grain: 600, Extra: []int64{300}},
	},
})

func buildLoopy(in Input) *task.Spec {
	side := int64(300)
	if len(in.Extra) > 0 {
		side = in.Extra[0]
	}
	return loopySpec(in.N, in.Grain, side)
}

func loopySpec(n, grain, side int64) *task.Spec {
	if n <= 0 {
		return task.Leaf("loopy-end", grain)
	}
	return &task.Spec{
		Label: fmt.Sprintf("loopy %d", n),
		Ops: []task.Op{
			// One small stealable side task...
			task.Spawn(func() *task.Spec { return task.Leaf("loopy-side", side) }),
			// ...while the chain continues serially via CALL.
			task.Compute(grain),
			task.Call(func() *task.Spec { return loopySpec(n-1, grain, side) }),
			task.Sync(),
		},
	}
}

// Bursty alternates sequential gaps with wide parallel bursts — the
// fluctuating-parallelism pattern (web servers with variable load) that
// motivates adaptive allotments in the paper's introduction, and the
// workload of the quantum-length ablation. Input fields: N = bursts,
// Extra[0] = burst width, Extra[1] = sequential gap work, Grain = leaf work.
var Bursty = register(&Def{
	Name:            "bursty",
	Profile:         "fluctuating parallelism: wide bursts separated by sequential gaps",
	PaperInputSim:   "(motivating pattern, §1)",
	PaperInputLinux: "(motivating pattern, §1)",
	Build:           buildBursty,
	Inputs: map[Platform]Input{
		Simulator: {N: 12, Grain: 2500, Extra: []int64{96, 60000}},
		NUMA:      {N: 12, Grain: 2500, Extra: []int64{160, 60000}},
	},
})

func buildBursty(in Input) *task.Spec {
	width, gap := int64(96), int64(60000)
	if len(in.Extra) > 0 {
		width = in.Extra[0]
	}
	if len(in.Extra) > 1 {
		gap = in.Extra[1]
	}
	return burstySpec(in.N, width, gap, in.Grain)
}

func burstySpec(bursts, width, gap, grain int64) *task.Spec {
	if bursts <= 0 {
		return task.Leaf("bursty-end", gap)
	}
	return &task.Spec{
		Label: fmt.Sprintf("bursty %d", bursts),
		Ops: []task.Op{
			// Sequential gap first: parallelism collapses to 1 between
			// bursts.
			task.Compute(gap),
			// The burst: a nested fork/join fan-out, so stolen subtrees
			// repopulate thieves' queues the way real task parallelism
			// does ("executing a task will result in spawning more tasks",
			// §2.2).
			task.Call(func() *task.Spec { return burstFan(width, grain) }),
			// Chain to the next burst serially.
			task.Call(func() *task.Spec {
				return burstySpec(bursts-1, width, gap, grain)
			}),
		},
	}
}

// burstFan recursively splits a burst of width leaves into a binary tree.
func burstFan(width, grain int64) *task.Spec {
	if width <= 1 {
		return task.Leaf("bursty-leaf", grain)
	}
	half := width / 2
	return &task.Spec{
		Label: fmt.Sprintf("bursty-fan %d", width),
		Ops: []task.Op{
			task.Spawn(func() *task.Spec { return burstFan(half, grain) }),
			task.Spawn(func() *task.Spec { return burstFan(width-half, grain) }),
			task.Sync(),
			task.Sync(),
		},
	}
}
