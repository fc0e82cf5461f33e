package workload

import (
	"fmt"
	"testing"

	"palirria/internal/task"
)

// stressPerInstance is the reference stress generator: it builds a fresh
// spec for every fan and leaf instance, where buildStress shares one spec
// per distinct fan. The two must describe the same tree.
func stressPerInstance(in Input, spread, width int64) *task.Spec {
	batches := (in.N + width - 1) / width
	children := make([]task.Builder, batches)
	for b := int64(0); b < batches; b++ {
		b := b
		children[b] = func() *task.Spec {
			return stressFanPerInstance(in, b*width, width, spread)
		}
	}
	return task.SpawnJoin("stress", 64, children, 0, 64)
}

func stressFanPerInstance(in Input, base, width, spread int64) *task.Spec {
	if width <= 1 {
		s := task.Leaf("stress-leaf", in.Grain*(1+base%spread))
		s.Footprint = 128
		return s
	}
	half := width / 2
	return &task.Spec{
		Label:     fmt.Sprintf("stress-fan %d+%d", base, width),
		Footprint: 128,
		Ops: []task.Op{
			task.Spawn(func() *task.Spec { return stressFanPerInstance(in, base, half, spread) }),
			task.Spawn(func() *task.Spec { return stressFanPerInstance(in, base+half, width-half, spread) }),
			task.Sync(),
			task.Sync(),
		},
	}
}

// TestStressMatchesPerInstanceGenerator pins buildStress against the
// reference: equal tree statistics on inputs up to the NUMA one, and an
// identical pre-order walk (labels aside: the shared fans drop the base
// index from theirs) on the small ones. The defaults apply when Extra is
// empty.
func TestStressMatchesPerInstanceGenerator(t *testing.T) {
	cases := []struct {
		in            Input
		spread, width int64
	}{
		{Stress.Inputs[NUMA], 5, 50},
		{Stress.Inputs[Simulator], 5, 50},
		{Input{N: 10000, Grain: 880}, 5, 50},
		{Input{N: 1, Grain: 7, Extra: []int64{3, 1}}, 3, 1},
		{Input{N: 37, Grain: 10, Extra: []int64{1, 8}}, 1, 8},
		{Input{N: 100, Grain: 10, Extra: []int64{7, 13}}, 7, 13},
		{Input{N: 250, Grain: 3, Extra: []int64{4, 50}}, 4, 50},
		{Input{N: 90, Grain: 5, Extra: []int64{-3, 9}}, -3, 9},
		{Input{N: 300, Grain: 11, Extra: []int64{64, 33}}, 64, 33},
	}
	for _, c := range cases {
		name := fmt.Sprintf("N=%d grain=%d spread=%d width=%d", c.in.N, c.in.Grain, c.spread, c.width)
		got, err := task.Measure(Stress.Build(c.in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := task.Measure(stressPerInstance(c.in, c.spread, c.width))
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: stats %+v, reference %+v", name, got, want)
		}
		if c.in.N > 300 {
			continue
		}
		samePreorder(t, name, Stress.Build(c.in), stressPerInstance(c.in, c.spread, c.width), false)
	}
}
