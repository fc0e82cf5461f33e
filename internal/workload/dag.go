package workload

import (
	"fmt"
	"sort"

	"palirria/internal/task"
)

// DAGStage is one node of a structured-job workload: a task-tree builder
// plus the indices of the stages that must complete before it starts. A
// stage graph is the workload-level shape handed to the serving layer's
// SubmitDAG (each stage becomes one DAG node, its tree realized by the
// runtime adapter).
type DAGStage struct {
	// Label names the stage for reports and event streams.
	Label string
	// Deps lists predecessor stage indices into the built slice.
	Deps []int
	// Build constructs the stage's task tree (called once per run).
	Build func() *task.Spec
}

// DAGDef describes one structured-job workload: a builder producing the
// stage graph for an input, plus per-platform inputs — the DAG analogue
// of Def.
type DAGDef struct {
	// Name is the canonical workload name ("pipeline", "mapreduce").
	Name string
	// Profile is a one-line parallelism-profile note.
	Profile string
	// Build constructs the stage graph for the given input.
	Build func(in Input) []DAGStage
	// Inputs holds the scaled inputs per platform.
	Inputs map[Platform]Input
}

// Stages builds the workload's stage graph for platform p.
func (d *DAGDef) Stages(p Platform) []DAGStage { return d.Build(d.Inputs[p]) }

var dagRegistry = map[string]*DAGDef{}

func registerDAG(d *DAGDef) *DAGDef {
	if _, dup := dagRegistry[d.Name]; dup {
		panic("workload: duplicate DAG " + d.Name)
	}
	dagRegistry[d.Name] = d
	return d
}

// GetDAG returns the DAG workload named name, or an error listing valid
// names.
func GetDAG(name string) (*DAGDef, error) {
	if d, ok := dagRegistry[name]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("workload: unknown DAG %q (have %v)", name, DAGNames())
}

// DAGNames returns all registered DAG workload names, sorted.
func DAGNames() []string {
	out := make([]string, 0, len(dagRegistry))
	for n := range dagRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// stageFan builds one stage's task tree: a binary fan over width leaves of
// grain cycles each, the same repopulating shape as a stress batch, so a
// stolen subtree keeps feeding thieves.
func stageFan(label string, base, width, grain int64) *task.Spec {
	if width <= 1 {
		return task.Leaf(label, grain)
	}
	half := width / 2
	return &task.Spec{
		Label: fmt.Sprintf("%s %d+%d", label, base, width),
		Ops: []task.Op{
			task.Spawn(func() *task.Spec { return stageFan(label, base, half, grain) }),
			task.Spawn(func() *task.Spec { return stageFan(label, base+half, width-half, grain) }),
			task.Sync(),
			task.Sync(),
		},
	}
}

// Pipeline is a linear chain of parallel stages: stage i+1 starts only
// when stage i's whole fan has completed. Within a stage the parallelism
// is wide (the fan width); across stages it collapses to the dependency
// chain — the estimator's desire should breathe once per stage boundary.
// Input fields: N = stage count, Grain = leaf work, Extra[0] = fan width
// per stage.
var PipelineDAG = registerDAG(&DAGDef{
	Name:    "pipeline",
	Profile: "linear stage chain; wide inside a stage, serialized across stages — desire breathes at every boundary",
	Build:   buildPipelineDAG,
	Inputs: map[Platform]Input{
		Simulator: {N: 6, Grain: 2_000, Extra: []int64{64}},
		NUMA:      {N: 6, Grain: 4_000, Extra: []int64{64}},
	},
})

func buildPipelineDAG(in Input) []DAGStage {
	width := int64(64)
	if len(in.Extra) > 0 && in.Extra[0] > 0 {
		width = in.Extra[0]
	}
	stages := make([]DAGStage, in.N)
	for i := int64(0); i < in.N; i++ {
		i := i
		var deps []int
		if i > 0 {
			deps = []int{int(i - 1)}
		}
		stages[i] = DAGStage{
			Label: fmt.Sprintf("pipeline-stage-%d", i),
			Deps:  deps,
			Build: func() *task.Spec {
				return stageFan(fmt.Sprintf("stage-%d", i), 0, width, in.Grain)
			},
		}
	}
	return stages
}

// MapReduceDAG fans a splitter out to N parallel mappers joined by a
// single reducer: maximum width in the middle, a serial bottleneck at both
// ends. Input fields: N = mapper count, Grain = leaf work, Extra[0] =
// leaves per mapper.
var MapReduceDAG = registerDAG(&DAGDef{
	Name:    "mapreduce",
	Profile: "splitter -> N parallel mappers -> reducer; bulk parallelism framed by serial bottlenecks",
	Build:   buildMapReduceDAG,
	Inputs: map[Platform]Input{
		Simulator: {N: 16, Grain: 2_000, Extra: []int64{32}},
		NUMA:      {N: 16, Grain: 4_000, Extra: []int64{32}},
	},
})

func buildMapReduceDAG(in Input) []DAGStage {
	leaves := int64(32)
	if len(in.Extra) > 0 && in.Extra[0] > 0 {
		leaves = in.Extra[0]
	}
	stages := make([]DAGStage, 0, in.N+2)
	stages = append(stages, DAGStage{
		Label: "split",
		Build: func() *task.Spec { return task.Leaf("split", in.Grain) },
	})
	reduceDeps := make([]int, 0, in.N)
	for m := int64(0); m < in.N; m++ {
		m := m
		stages = append(stages, DAGStage{
			Label: fmt.Sprintf("map-%d", m),
			Deps:  []int{0},
			Build: func() *task.Spec {
				return stageFan(fmt.Sprintf("map-%d", m), 0, leaves, in.Grain)
			},
		})
		reduceDeps = append(reduceDeps, int(m+1))
	}
	stages = append(stages, DAGStage{
		Label: "reduce",
		Deps:  reduceDeps,
		Build: func() *task.Spec { return task.Leaf("reduce", in.Grain) },
	})
	return stages
}
