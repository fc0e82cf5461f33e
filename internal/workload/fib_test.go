package workload

import (
	"fmt"
	"testing"

	"palirria/internal/task"
)

// fibPerInstance is the reference fib generator: it builds a fresh spec for
// every task instance, recursively, where buildFib shares one spec per
// fib(k). The two must describe the same tree.
func fibPerInstance(n int, leaf, add int64) *task.Spec {
	if n < 2 {
		s := task.Leaf(fmt.Sprintf("fib(%d)", n), leaf)
		s.Footprint = 64
		return s
	}
	return &task.Spec{
		Label:     fmt.Sprintf("fib(%d)", n),
		Footprint: 64,
		Ops: []task.Op{
			task.Spawn(func() *task.Spec { return fibPerInstance(n-1, leaf, add) }),
			task.Call(func() *task.Spec { return fibPerInstance(n-2, leaf, add) }),
			task.Sync(),
			task.Compute(add),
		},
	}
}

// preorder walks the whole tree and records, per task, its label (when
// labels is set), footprint, op kinds and compute work.
func preorder(s *task.Spec, labels bool, out *[]string) {
	line := fmt.Sprintf("fp=%d mb=%v", s.Footprint, s.MemBound)
	if labels {
		line = s.Label + " " + line
	}
	for _, op := range s.Ops {
		line += fmt.Sprintf(" %v:%d", op.Kind, op.Work)
	}
	*out = append(*out, line)
	for _, op := range s.Ops {
		if op.Kind == task.OpSpawn || op.Kind == task.OpCall {
			preorder(op.Gen(), labels, out)
		}
	}
}

// samePreorder fails t unless the two trees walk identically.
func samePreorder(t *testing.T, name string, got, want *task.Spec, labels bool) {
	t.Helper()
	var g, w []string
	preorder(got, labels, &g)
	preorder(want, labels, &w)
	if len(g) != len(w) {
		t.Fatalf("%s: %d tasks in the walk, reference %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: task %d is %q, reference %q", name, i, g[i], w[i])
		}
	}
}

// TestFibMatchesPerInstanceGenerator pins buildFib against the reference:
// equal tree statistics for every depth up to the NUMA input, and an
// identical pre-order walk on the small ones. The default add work applies
// when Extra is empty.
func TestFibMatchesPerInstanceGenerator(t *testing.T) {
	for n := -1; n <= 26; n++ {
		in := Input{N: int64(n), Grain: 220, Extra: []int64{40}}
		add := int64(40)
		if n%2 == 0 {
			in.Extra, add = nil, 20
		}
		got, err := task.Measure(Fib.Build(in))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		want, err := task.Measure(fibPerInstance(n, in.Grain, add))
		if err != nil {
			t.Fatalf("N=%d reference: %v", n, err)
		}
		if got != want {
			t.Fatalf("N=%d: stats %+v, reference %+v", n, got, want)
		}
		if n > 12 {
			continue
		}
		samePreorder(t, fmt.Sprintf("N=%d", n), Fib.Build(in), fibPerInstance(n, in.Grain, add), true)
	}
}
