package wsrt

// Native workloads: real computations expressed directly against the
// runtime's Spawn/Sync API, with externally verifiable results. They are
// what downstream users of the library write; the spec-tree workloads
// exist for the deterministic simulator.

import "slices"

// ParallelMergeSort sorts data in place using WOOL-style fork/join:
// recursive halves are spawned until the cut-off, each leaf is sorted
// sequentially, and the halves are merged on the way back up. It returns
// the Func to pass to Runtime.Run.
func ParallelMergeSort(data []int, cutoff int) Func {
	if cutoff < 2 {
		cutoff = 2
	}
	buf := make([]int, len(data))
	var sortRange func(c *Ctx, lo, hi int)
	sortRange = func(c *Ctx, lo, hi int) {
		if hi-lo <= cutoff {
			slices.Sort(data[lo:hi])
			return
		}
		mid := (lo + hi) / 2
		c.Spawn(func(cc *Ctx) { sortRange(cc, lo, mid) })
		sortRange(c, mid, hi)
		c.Sync()
		merge(data, buf, lo, mid, hi)
	}
	return func(c *Ctx) { sortRange(c, 0, len(data)) }
}

// merge merges data[lo:mid] and data[mid:hi] through buf. Each step
// selects the smaller head and advances its run by comparison results
// alone (SETcc and CMOV), so random input costs no mispredicted branch.
func merge(data, buf []int, lo, mid, hi int) {
	copy(buf[lo:hi], data[lo:hi])
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		a, b := buf[i], buf[j]
		right := b2i(b < a)
		data[k] = min(a, b)
		i += 1 - right
		j += right
		k++
	}
	k += copy(data[k:], buf[i:mid])
	copy(data[k:], buf[j:hi])
}

// b2i is 1 for true and 0 for false; the compiler emits it as SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// CountNQueens counts the solutions of the n-queens problem with parallel
// exploration of the first `depth` rows (the workload shape of the
// paper's nQueens benchmark, computing the real answer). The result is
// written to out after the returned Func completes.
func CountNQueens(n, depth int, out *int64) Func {
	var solve func(c *Ctx, row int, cols, diag1, diag2 uint64, acc *int64)
	solve = func(c *Ctx, row int, cols, diag1, diag2 uint64, acc *int64) {
		if row == n {
			*acc = 1
			return
		}
		free := ^(cols | diag1 | diag2) & ((1 << uint(n)) - 1)
		if free == 0 {
			return
		}
		if row >= depth {
			// Sequential search below the cut-off.
			*acc = seqQueens(n, row, cols, diag1, diag2)
			return
		}
		// Parallel: one spawn per candidate column.
		var partials []int64
		var masks []uint64
		for f := free; f != 0; f &= f - 1 {
			masks = append(masks, f&-f)
		}
		partials = make([]int64, len(masks))
		for i, bit := range masks {
			i, bit := i, bit
			c.Spawn(func(cc *Ctx) {
				solve(cc, row+1, cols|bit, (diag1|bit)<<1, (diag2|bit)>>1, &partials[i])
			})
		}
		c.SyncAll()
		var sum int64
		for _, p := range partials {
			sum += p
		}
		*acc = sum
	}
	return func(c *Ctx) { solve(c, 0, 0, 0, 0, out) }
}

func seqQueens(n, row int, cols, diag1, diag2 uint64) int64 {
	if row == n {
		return 1
	}
	var count int64
	free := ^(cols | diag1 | diag2) & ((1 << uint(n)) - 1)
	for f := free; f != 0; f &= f - 1 {
		bit := f & -f
		count += seqQueens(n, row+1, cols|bit, (diag1|bit)<<1, (diag2|bit)>>1)
	}
	return count
}

// ParallelReduce sums f(i) for i in [0, n) with a nested fork/join fan,
// the building block of map/reduce-style uses of the runtime.
func ParallelReduce(n int, grain int, f func(int) int64, out *int64) Func {
	if grain < 1 {
		grain = 1
	}
	var reduce func(c *Ctx, lo, hi int, acc *int64)
	reduce = func(c *Ctx, lo, hi int, acc *int64) {
		if hi-lo <= grain {
			var s int64
			for i := lo; i < hi; i++ {
				s += f(i)
			}
			*acc = s
			return
		}
		mid := (lo + hi) / 2
		var left int64
		c.Spawn(func(cc *Ctx) { reduce(cc, lo, mid, &left) })
		var right int64
		reduce(c, mid, hi, &right)
		c.Sync()
		*acc = left + right
	}
	return func(c *Ctx) { reduce(c, 0, n, out) }
}
