package wsrt

import (
	"sync/atomic"
	"testing"
	"time"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// recordingEst keeps every snapshot it estimates and never asks for a
// change.
type recordingEst struct{ snaps []*core.Snapshot }

func (e *recordingEst) Name() string { return "recording" }
func (e *recordingEst) Estimate(s *core.Snapshot) int {
	e.snaps = append(e.snaps, s)
	return s.Allotment.Size()
}
func (e *recordingEst) Granted(int) {}

// TestQuantumSamplesLazyMarkAndParkedWaste drives the quantum step by hand
// (the hour-long ticker never fires) on a single-worker mesh, so no thief
// touches the fan, and pins what the runtime samples today. ROADMAP item
// 15 changes both readings on purpose; this test flips with it:
//   - the µ(Q) mark resets lazily, on a worker's next spawn or park, so a
//     worker that spawned an 8-way fan and has done neither since still
//     reports 8 a quantum later;
//   - WastedCycles is the quantum's delta of search plus parked time.
func TestQuantumSamplesLazyMarkAndParkedWaste(t *testing.T) {
	m := topo.MustMesh(2)
	m.Reserve(1)
	est := &recordingEst{}
	rt, err := New(Config{Mesh: m, Source: 0, Estimator: est, Quantum: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var before int64
	_, err = rt.Run(func(c *Ctx) {
		for i := 0; i < 8; i++ {
			c.Spawn(func(*Ctx) {})
		}
		// The root runs on the only worker, so its counters hold still
		// while the root reads and bumps them.
		w := rt.byID[0]
		before = atomic.LoadInt64(&w.stats.SearchNS) + atomic.LoadInt64(&w.stats.IdleNS)
		rt.quantum()
		rt.quantum()
		atomic.AddInt64(&w.stats.SearchNS, 1000)
		atomic.AddInt64(&w.stats.IdleNS, 500)
		rt.quantum()
		c.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.snaps) != 3 {
		t.Fatalf("%d quanta sampled, want 3", len(est.snaps))
	}
	want := []struct {
		maxQ   int
		wasted int64
	}{{8, before}, {8, 0}, {8, 1500}}
	for i, s := range est.snaps {
		ws := s.Workers[0]
		if ws == nil {
			t.Fatalf("quantum %d: source worker not sampled", i+1)
		}
		if ws.QueueLen != 8 || ws.MaxQueueLen != want[i].maxQ || ws.WastedCycles != want[i].wasted || !ws.Busy {
			t.Errorf("quantum %d: %+v, want QueueLen 8, MaxQueueLen %d, WastedCycles %d, Busy",
				i+1, *ws, want[i].maxQ, want[i].wasted)
		}
	}
}
