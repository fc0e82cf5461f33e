package main

import (
	"sync/atomic"

	"palirria/internal/wsrt"
)

// Job bodies are benchmark code: the "first instruction" and "last
// instruction" stamps are taken here, not inside the runtime.

// refFanout and refWork are the reference job fan(8, 10000): 8 spawned
// leaves of Ctx.Compute(10000) each, about 200 µs of CPU.
const (
	refFanout = 8
	refWork   = 10000
)

// stamps are the two instants a traced job body records.
type stamps struct {
	first, last int64
}

// fanJob spawns fanout leaves of work compute units each and joins them.
// Every leaf adds one to leaves, so "leaves run == Σ fanout" can be
// checked after the run. st is nil on untraced passes.
func fanJob(fanout int, work int64, leaves *atomic.Int64, st *stamps) wsrt.Func {
	leaf := func(c *wsrt.Ctx) {
		c.Compute(work)
		leaves.Add(1)
	}
	return func(c *wsrt.Ctx) {
		if st != nil {
			st.first = nowNS()
		}
		for i := 0; i < fanout; i++ {
			c.Spawn(leaf)
		}
		c.SyncAll()
		if st != nil {
			st.last = nowNS()
		}
	}
}

// leafJob is one reference leaf as a whole job: the DAG node body.
func leafJob(work int64, leaves *atomic.Int64, st *stamps) wsrt.Func {
	return func(c *wsrt.Ctx) {
		if st != nil {
			st.first = nowNS()
		}
		c.Compute(work)
		leaves.Add(1)
		if st != nil {
			st.last = nowNS()
		}
	}
}

// spawnTree is a binary spawn tree of the given depth whose tasks do no
// work at all: what it costs is spawn, sync and steal, nothing else.
func spawnTree(depth int) wsrt.Func {
	var node func(d int) wsrt.Func
	node = func(d int) wsrt.Func {
		return func(c *wsrt.Ctx) {
			if d == 0 {
				return
			}
			c.Spawn(node(d - 1))
			c.Spawn(node(d - 1))
			c.SyncAll()
		}
	}
	return node(depth)
}
