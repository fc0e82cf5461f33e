package wsrt

import (
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/obs"
)

func (r *Runtime) recordTimeline(workers int) {
	r.tlMu.Lock()
	defer r.tlMu.Unlock()
	t := nowNS() - r.startNS
	if t < 0 {
		t = 0
	}
	r.timeline.Record(t, workers)
}

// helperLoop is the system-level helper thread: it runs one estimation
// quantum per tick until stopped or the run finishes.
func (r *Runtime) helperLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(r.cfg.Quantum)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if r.finished.Load() {
			return
		}
		r.quantum()
	}
}

// quantum runs one estimation quantum: sample the allotment, estimate,
// obtain and record the grant, and apply it to the workers.
func (r *Runtime) quantum() {
	granted := r.mgr.Current()
	snap := r.ctrl.Sample(granted, int64(r.cfg.Quantum), nowNS()-r.startNS, r.readWorker)
	// The marks just read belong to the window that closed; open the next
	// one — workers reset their hwm on their first spawn under the new
	// sequence number.
	r.qseq.Add(1)
	desired := r.ctrl.Step(snap)
	next, changed := r.mgr.Grant(desired)
	d := r.ctrl.Record(nowNS()-r.startNS, next.Size())
	r.quanta.Add(1)
	r.allotSize.Store(int64(next.Size()))
	if r.cfg.OnQuantum != nil {
		r.cfg.OnQuantum(d)
	}
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Quantum(r.helperRing, nowNS()-r.startNS, obs.NoWorker, "", r.ctrl.Explain(snap))
	}
	if !changed {
		return
	}
	r.grantedA.Store(next)
	// Drain workers leaving the grant; activate workers entering it.
	for _, id := range granted.Members() {
		if !next.Contains(id) {
			w := r.byID[id]
			if w.state.CompareAndSwap(stateActive, stateDraining) {
				// A revoked worker may be blocked in idleWait; deliver a
				// token so it observes the drain now instead of at the
				// next unrelated wakeup.
				r.clearIdle(w)
				w.unpark()
			}
		}
	}
	for _, id := range next.Members() {
		w := r.byID[id]
		for {
			s := w.state.Load()
			if s == stateActive || s == stateStopped {
				break
			}
			if w.state.CompareAndSwap(s, stateActive) {
				w.unpark()
				break
			}
		}
	}
	r.rebuildPolicy()
	// Waiters may have parked against the old victim lists; wake them all
	// so they re-announce against the new ones (see wakeAllIdle).
	r.wakeAllIdle()
	r.recordTimeline(next.Size())
}

// readWorker fills one member's reading for the quantum sample. The
// runtime samples the whole deque and the lazily reset high-water mark
// (see Runtime.qseq), and counts search plus parked time as waste: a
// parked worker is exactly as wasted as a probing one, it just no longer
// burns a core to prove it.
func (r *Runtime) readWorker(ws *core.WorkerSnapshot) bool {
	w := r.byID[ws.ID]
	ws.WastedCycles = atomic.LoadInt64(&w.stats.SearchNS) + atomic.LoadInt64(&w.stats.IdleNS)
	ws.QueueLen = w.deque.Len()
	ws.MaxQueueLen = int(w.hwm.Load())
	ws.Busy = w.busy.Load()
	ws.Draining = w.state.Load() == stateDraining
	return true
}
