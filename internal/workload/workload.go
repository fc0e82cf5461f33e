// Package workload provides the evaluation programs of the paper as
// parameterized fork/join task trees.
//
// The paper evaluates FFT, nQueens, Sort and Strassen from the BOTS suite
// plus the micro-benchmarks Fib, Stress and Skew (paper §5, inputs in its
// Fig. 4). The estimators under study never observe the arithmetic performed
// inside tasks — only the tree's shape, grain and timing — so each workload
// here reproduces the published *parallelism profile*:
//
//	Fib      embarrassingly parallel, finely grained, scales linearly
//	nQueens  wide and balanced tree, fine grained, varying granularity,
//	         scales sub-linearly with a small cut-off
//	FFT      divide-and-conquer with parallel twiddle phases; cache-thrashing
//	Sort     a sequence of sections of varying parallelism, each starting at
//	         the source worker; cache-thrashing and irregular
//	Strassen quite irregular, coarse grained, few gradually spawned tasks
//	Stress   strains the runtime by varying the grain size
//	Skew     Stress variant with an unbalanced task tree
//
// Two further synthetic programs support the analysis sections: LOOPY
// (Sen's adversarial program discussed in §4.1.1) and Bursty (fluctuating
// parallelism for the quantum-length ablation and the adaptive-server
// example).
//
// Inputs are scaled down from the paper's so the full evaluation runs in
// minutes on a laptop rather than hours on a 48-core machine; the scaling
// preserves tree shape and relative grain (see DESIGN.md substitutions).
//
// Fib builds one spec per distinct node per Build call and shares it among
// every instance of that node; the other generators build a spec per task,
// because nqueens, skew and stress set each grain from a per-node hash or
// leaf index, and fft, sort and strassen build too few nodes per run (about
// 1 150 at most) for sharing to move any number.
package workload

import (
	"fmt"
	"sort"

	"palirria/internal/task"
	"palirria/internal/xrand"
)

// Platform selects an input scale.
type Platform int

const (
	// Simulator is the ideal 32-core platform (paper: Simics + Barrelfish).
	Simulator Platform = iota
	// NUMA is the 48-core real-hardware platform (paper: Linux + Opteron).
	NUMA
)

// String names the platform.
func (p Platform) String() string {
	if p == Simulator {
		return "barrelfish-sim"
	}
	return "linux-numa"
}

// Input parameterizes one workload instance.
type Input struct {
	// N is the main size parameter (problem size or recursion depth).
	N int64
	// Cutoff bounds recursion depth or sequential-leaf size; 0 = none.
	Cutoff int64
	// Grain scales leaf work in cycles.
	Grain int64
	// Extra carries workload-specific parameters (documented per workload).
	Extra []int64
	// Seed drives deterministic pseudo-random shape variation.
	Seed uint64
}

// String renders the input compactly, e.g. "n=27 cutoff=0 grain=40".
func (in Input) String() string {
	s := fmt.Sprintf("n=%d", in.N)
	if in.Cutoff != 0 {
		s += fmt.Sprintf(" cutoff=%d", in.Cutoff)
	}
	if in.Grain != 0 {
		s += fmt.Sprintf(" grain=%d", in.Grain)
	}
	for i, e := range in.Extra {
		s += fmt.Sprintf(" x%d=%d", i, e)
	}
	return s
}

// Def describes one workload: its builder plus the per-platform inputs the
// benchmark harness uses and the original inputs from the paper's Fig. 4.
type Def struct {
	// Name is the canonical workload name ("fib", "nqueens", ...).
	Name string
	// Profile is the parallelism-profile note from the paper.
	Profile string
	// PaperInputSim / PaperInputLinux quote the paper's Fig. 4 rows.
	PaperInputSim, PaperInputLinux string
	// Build constructs the root task for the given input.
	Build func(in Input) *task.Spec
	// Inputs holds the scaled inputs per platform.
	Inputs map[Platform]Input
}

// Root builds the workload's root task for platform p.
func (d *Def) Root(p Platform) *task.Spec { return d.Build(d.Inputs[p]) }

// registry of all workloads, keyed by name.
var registry = map[string]*Def{}

func register(d *Def) *Def {
	if _, dup := registry[d.Name]; dup {
		panic("workload: duplicate " + d.Name)
	}
	registry[d.Name] = d
	return d
}

// Get returns the workload named name, or an error listing valid names.
func Get(name string) (*Def, error) {
	if d, ok := registry[name]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("workload: unknown %q (have %v)", name, Names())
}

// Names returns all registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PaperSet returns the seven workloads of the paper's evaluation, in the
// order its figures list them.
func PaperSet() []*Def {
	names := []string{"fft", "fib", "nqueens", "skew", "sort", "strassen", "stress"}
	out := make([]*Def, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// shapeHash derives a deterministic per-node value from the workload seed
// and the node's path, independent of execution order.
func shapeHash(seed uint64, path uint64) uint64 {
	return xrand.Hash64(seed ^ xrand.Hash64(path))
}

// childPath extends a node path with child index i.
func childPath(path uint64, i int) uint64 {
	return path*0x100000001b3 + uint64(i) + 1
}

// varyGrain returns base scaled by a deterministic factor in [1, spread],
// derived from h. spread <= 1 returns base unchanged.
func varyGrain(base int64, h uint64, spread int64) int64 {
	if spread <= 1 {
		return base
	}
	return base * (1 + int64(h%uint64(spread)))
}

func log2int(n int64) int64 {
	var l int64
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}
