package workload

import (
	"fmt"

	"palirria/internal/task"
)

// Fib is recursive Fibonacci in WOOL's canonical shape: SPAWN(fib(n-1)),
// CALL(fib(n-2)), SYNC, add. Input fields: N = depth, Grain = leaf work,
// Extra[0] = internal (addition) work.
var Fib = register(&Def{
	Name:            "fib",
	Profile:         "embarrassingly parallel, rather finely grained, scales linearly",
	PaperInputSim:   "input 40",
	PaperInputLinux: "input 42",
	Build:           buildFib,
	Inputs: map[Platform]Input{
		Simulator: {N: 24, Grain: 220, Extra: []int64{40}},
		NUMA:      {N: 26, Grain: 220, Extra: []int64{40}},
	},
})

// buildFib builds one spec per distinct node fib(0..N), bottom-up, and
// shares it among every instance of that node: fib(k) spawns fib(k-1)'s
// spec and calls fib(k-2)'s. The table is complete before Build returns, so
// platforms walking the tree concurrently only read it, and it becomes
// garbage with the tree.
func buildFib(in Input) *task.Spec {
	add := int64(20)
	if len(in.Extra) > 0 {
		add = in.Extra[0]
	}
	leaf := func(k int) *task.Spec {
		s := task.Leaf(fmt.Sprintf("fib(%d)", k), in.Grain)
		s.Footprint = 64
		return s
	}
	n := int(in.N)
	if n < 2 {
		return leaf(n)
	}
	specs := make([]*task.Spec, n+1)
	specs[0], specs[1] = leaf(0), leaf(1)
	for k := 2; k <= n; k++ {
		spawned, called := specs[k-1], specs[k-2]
		specs[k] = &task.Spec{
			Label:     fmt.Sprintf("fib(%d)", k),
			Footprint: 64,
			Ops: []task.Op{
				task.Spawn(func() *task.Spec { return spawned }),
				task.Call(func() *task.Spec { return called }),
				task.Sync(),
				task.Compute(add),
			},
		}
	}
	return specs[n]
}

// NQueens models the BOTS nQueens search: a wide, balanced tree of depth
// Cutoff whose branching factor shrinks with depth (placements get pruned),
// with sequential leaf searches of varying granularity below the cut-off.
// Input fields: N = board size, Cutoff = parallel depth, Grain = leaf work
// unit, Seed = pruning jitter.
var NQueens = register(&Def{
	Name:            "nqueens",
	Profile:         "fine grained, wide and balanced tree; tasks of varying granularity, scales sub-linearly with a small cut-off",
	PaperInputSim:   "input 13, cut-off 3",
	PaperInputLinux: "input 14, cut-off 3",
	Build:           buildNQueens,
	Inputs: map[Platform]Input{
		Simulator: {N: 13, Cutoff: 3, Grain: 900, Seed: 1013},
		NUMA:      {N: 14, Cutoff: 3, Grain: 900, Seed: 1014},
	},
})

func buildNQueens(in Input) *task.Spec {
	return nqueensSpec(in, 0, 0)
}

func nqueensSpec(in Input, depth int, path uint64) *task.Spec {
	n := int(in.N)
	if depth >= int(in.Cutoff) {
		// Sequential search of the remaining n-depth rows. Granularity
		// varies with the position in the tree: some branches prune early,
		// some explore deeply (factor 1..8).
		h := shapeHash(in.Seed, path)
		remaining := int64(n - depth)
		work := varyGrain(in.Grain*remaining, h, 8)
		s := task.Leaf(fmt.Sprintf("nq-leaf d%d", depth), work)
		s.Footprint = 256
		return s
	}
	// Valid placements at this depth: roughly n - depth, minus a small
	// deterministic pruning jitter of 0..2.
	h := shapeHash(in.Seed, path)
	branch := n - depth - int(h%3)
	if branch < 1 {
		branch = 1
	}
	children := make([]task.Builder, branch)
	for i := 0; i < branch; i++ {
		cp := childPath(path, i)
		children[i] = func() *task.Spec { return nqueensSpec(in, depth+1, cp) }
	}
	s := task.SpawnJoin(fmt.Sprintf("nq d%d", depth), int64(branch)*8, children, 0, int64(branch)*4)
	s.Footprint = 256
	return s
}

// Strassen models BOTS Strassen matrix multiplication: seven recursive
// children per node, spawned gradually (matrix additions are computed
// between consecutive spawns), recursion stopped by both a size cut-off and
// a depth cut-off, with coarse sequential leaves. Input fields: N = matrix
// dimension, Cutoff = leaf dimension, Extra[0] = depth cut-off, Grain =
// work per leaf matrix element.
var Strassen = register(&Def{
	Name:            "strassen",
	Profile:         "quite irregular and coarser grained; just enough gradually spawned tasks for a small number of workers",
	PaperInputSim:   "input 1024,32, cut-off 64,3",
	PaperInputLinux: "input 1024,32, cut-off 64,3",
	Build:           buildStrassen,
	Inputs: map[Platform]Input{
		// Coarse on both platforms: the paper configures Strassen "to
		// produce just enough tasks to utilize a small number of workers",
		// and its Fig. 5 shows negative scaling beyond 12 workers.
		Simulator: {N: 512, Cutoff: 128, Grain: 2, Extra: []int64{2}},
		NUMA:      {N: 1024, Cutoff: 128, Grain: 2, Extra: []int64{3}},
	},
})

func buildStrassen(in Input) *task.Spec {
	maxDepth := int64(3)
	if len(in.Extra) > 0 {
		maxDepth = in.Extra[0]
	}
	return strassenSpec(in.N, in.Cutoff, in.Grain, maxDepth)
}

func strassenSpec(n, cutoff, grain, depthLeft int64) *task.Spec {
	if n <= cutoff || depthLeft <= 0 {
		// Sequential multiply of an n x n block: ~ n^2.8, modelled as
		// grain * n^2 * (n/16) to stay integral but super-quadratic.
		work := grain * n * n * max64(n/16, 1) / 4
		s := task.Leaf(fmt.Sprintf("strassen-leaf %d", n), work)
		s.Footprint = 3 * n * n * 8
		s.MemBound = strassenMemBound
		return s
	}
	half := n / 2
	// The seven Strassen products, each preceded by the submatrix additions
	// that form its operands — this is the "gradual spawning" the paper
	// calls out: tasks become stealable one by one, not in a burst.
	addWork := grain * half * half / 2
	ops := make([]task.Op, 0, 7*2+8)
	for i := 0; i < 7; i++ {
		ops = append(ops, task.Compute(addWork))
		ops = append(ops, task.Spawn(func() *task.Spec {
			return strassenSpec(half, cutoff, grain, depthLeft-1)
		}))
	}
	for i := 0; i < 7; i++ {
		ops = append(ops, task.Sync())
	}
	// Final combine: C assembled from the seven products.
	ops = append(ops, task.Compute(grain*half*half))
	return &task.Spec{
		Label:     fmt.Sprintf("strassen %d", n),
		Footprint: 3 * n * n * 8,
		MemBound:  strassenMemBound,
		Ops:       ops,
	}
}

// strassenMemBound makes Strassen flat-to-negative scaling on the NUMA
// model beyond roughly a dozen workers, as the paper's Fig. 7 shows: its
// submatrix additions stream operands while the multiply leaves stay
// cache-resident.
const strassenMemBound = 0.3

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
