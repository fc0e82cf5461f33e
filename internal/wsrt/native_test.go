package wsrt

import (
	"slices"
	"sort"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
	"palirria/internal/xrand"
)

func TestParallelMergeSortCorrect(t *testing.T) {
	rng := xrand.NewXoshiro256(42)
	data := make([]int, 50000)
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	want := append([]int(nil), data...)
	sort.Ints(want)

	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(ParallelMergeSort(data, 256)); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("mismatch at %d: %d != %d", i, data[i], want[i])
		}
	}
}

func TestParallelMergeSortEdgeCases(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257} {
		rng := xrand.NewXoshiro256(uint64(n))
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(100)
		}
		rt, err := New(Config{Mesh: topo.MustMesh(4), Source: 0, InitialDiaspora: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(ParallelMergeSort(data, 4)); err != nil {
			t.Fatal(err)
		}
		if !sort.IntsAreSorted(data) {
			t.Fatalf("n=%d not sorted: %v", n, data)
		}
	}
}

// TestParallelMergeSortCutoffs sorts the same inputs at cut-offs from the
// smallest leaf to one sequential leaf over the whole slice, which also
// keeps a quadratic leaf sort from coming back: at 1<<18 elements it
// would run for minutes.
func TestParallelMergeSortCutoffs(t *testing.T) {
	const n = 1 << 18
	rng := xrand.NewXoshiro256(7)
	inputs := map[string][]int{
		"random": make([]int, n), "sorted": make([]int, n),
		"reversed": make([]int, n), "equal": make([]int, n),
	}
	for i := 0; i < n; i++ {
		inputs["random"][i] = rng.Intn(1 << 30)
		inputs["sorted"][i] = i
		inputs["reversed"][i] = n - i
		inputs["equal"][i] = 42
	}
	for name, in := range inputs {
		want := slices.Clone(in)
		slices.Sort(want)
		for _, cutoff := range []int{2, 7, 2048, n} {
			data := slices.Clone(in)
			rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Run(ParallelMergeSort(data, cutoff)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(data, want) {
				t.Errorf("%s input, cut-off %d: output is not the sorted input", name, cutoff)
			}
		}
	}
}

// TestParallelMergeSortTaskCount pins the spawn tree forkjoin_batch runs:
// 200 000 elements at cut-off 2048 halve into 128 leaves, so the root and
// 127 spawns make 128 tasks.
func TestParallelMergeSortTaskCount(t *testing.T) {
	data := make([]int, 200_000)
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(ParallelMergeSort(data, 2048))
	if err != nil {
		t.Fatal(err)
	}
	var tasks int64
	for _, w := range rep.Workers {
		tasks += w.Tasks
	}
	if tasks != 128 {
		t.Fatalf("merge sort of 200 000 at cut-off 2048 ran %d tasks, want 128", tasks)
	}
}

func TestCountNQueensKnownValues(t *testing.T) {
	// Known solution counts: 8 -> 92, 9 -> 352, 10 -> 724.
	want := map[int]int64{6: 4, 7: 40, 8: 92, 9: 352, 10: 724}
	for n, expect := range want {
		var got int64
		rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Run(CountNQueens(n, 3, &got)); err != nil {
			t.Fatal(err)
		}
		if got != expect {
			t.Fatalf("queens(%d) = %d, want %d", n, got, expect)
		}
	}
}

func TestCountNQueensAdaptive(t *testing.T) {
	// The real nQueens under an adaptive Palirria runtime still computes
	// the right answer while the allotment moves.
	var got int64
	rt, err := New(Config{
		Mesh: topo.MustMesh(4, 4), Source: 5,
		Estimator: core.NewPalirria(),
		Quantum:   300 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(CountNQueens(10, 4, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 724 {
		t.Fatalf("queens(10) = %d, want 724", got)
	}
}

func TestParallelReduce(t *testing.T) {
	var got int64
	rt, err := New(Config{Mesh: topo.MustMesh(4, 2), Source: 0, InitialDiaspora: 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	if _, err := rt.Run(ParallelReduce(n, 128, func(i int) int64 { return int64(i) }, &got)); err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n - 1) / 2; got != want {
		t.Fatalf("reduce = %d, want %d", got, want)
	}
}

func TestParallelReduceTinyGrain(t *testing.T) {
	var got int64
	rt, err := New(Config{Mesh: topo.MustMesh(2), Source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(ParallelReduce(10, 0, func(i int) int64 { return 1 }, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("reduce = %d", got)
	}
}
