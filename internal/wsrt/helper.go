package wsrt

import (
	"sync/atomic"
	"time"

	"palirria/internal/core"
	"palirria/internal/obs"
	"palirria/internal/topo"
	"palirria/internal/trace"
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

// helperLoop is the system-level helper thread: it evaluates the estimator
// every quantum and applies allotment changes in the background.
func (r *Runtime) helperLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(r.cfg.Quantum)
	defer ticker.Stop()
	lastWasted := map[topo.CoreID]int64{}
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if r.finished.Load() {
			return
		}
		granted := r.mgr.Current()
		class := topo.Classify(granted)
		snaps := make(map[topo.CoreID]*core.WorkerSnapshot, granted.Size())
		for _, id := range granted.Members() {
			w := r.byID[id]
			// Wasted effort is search plus parked time: the estimators'
			// WastedCycles semantics predate event-driven parking, and a
			// parked worker is exactly as wasted as a probing one — it just
			// no longer burns a core to prove it.
			total := atomic.LoadInt64(&w.stats.SearchNS) + atomic.LoadInt64(&w.stats.IdleNS)
			delta := total - lastWasted[id]
			lastWasted[id] = total
			snaps[id] = &core.WorkerSnapshot{
				ID:           id,
				QueueLen:     w.deque.Len(),
				MaxQueueLen:  int(w.hwm.Load()),
				Busy:         w.busy.Load(),
				WastedCycles: delta,
				Draining:     w.state.Load() == stateDraining,
			}
		}
		// The marks above belong to the window that just closed; open the
		// next one — workers reset their hwm on their first spawn under
		// the new sequence number.
		r.qseq.Add(1)
		snap := &core.Snapshot{
			Allotment:     granted,
			Class:         class,
			Workers:       snaps,
			QuantumCycles: int64(r.cfg.Quantum),
			Time:          nowNS() - r.startNS,
		}
		desired := r.ctrl.Step(snap)
		next, changed := r.mgr.Grant(desired)
		r.ctrl.Granted(next.Size())
		r.decisions.Add(trace.Decision{
			Time:      nowNS() - r.startNS,
			Estimator: r.ctrl.Est.Name(),
			Desired:   desired,
			Granted:   next.Size(),
		})
		r.quanta.Add(1)
		r.allotSize.Store(int64(next.Size()))
		if r.cfg.OnQuantum != nil {
			info := r.ctrl.Last()
			r.cfg.OnQuantum(QuantumInfo{
				Time:     nowNS() - r.startNS,
				Raw:      info.Raw,
				Filtered: info.Filtered,
				Granted:  next.Size(),
				Capacity: r.mgr.EffectiveMaxWorkers(),
			})
		}
		if r.helperRing != nil {
			ts := nowNS() - r.startNS
			r.helperRing.Emit(obs.Event{
				TS: ts, Kind: obs.KindQuantum,
				Worker: obs.NoWorker, Peer: obs.NoWorker, Arg: int64(desired),
			})
			// Every quantum, even unchanged: ring buffers keep only the
			// newest events, and the Chrome allotment counter track must
			// have samples inside whatever window survives.
			r.helperRing.Emit(obs.Event{
				TS: ts, Kind: obs.KindGrant,
				Worker: obs.NoWorker, Peer: obs.NoWorker, Arg: int64(next.Size()),
			})
			if r.cfg.Introspect {
				r.cfg.Tracer.RecordSnapshot(r.estimatorSnapshot(snap, granted.Size(), next.Size()))
			}
		}
		if !changed {
			continue
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
		// Waiters may have parked against the old victim lists; wake them
		// all so they re-announce against the new ones (see wakeAllIdle).
		r.wakeAllIdle()
		r.recordTimeline(next.Size())
	}
}

// estimatorSnapshot builds the per-quantum introspection record: the
// controller's raw and filtered desire plus the estimator's annotated view
// when it implements core.Introspector.
func (r *Runtime) estimatorSnapshot(snap *core.Snapshot, prevSize, granted int) obs.EstimatorSnapshot {
	info := r.ctrl.Last()
	es := obs.EstimatorSnapshot{
		Time:           snap.Time,
		Estimator:      r.ctrl.Est.Name(),
		Allotment:      prevSize,
		Decision:       core.DecisionOf(prevSize, info.Raw).String(),
		RawDesire:      info.Raw,
		FilteredDesire: info.Filtered,
		Granted:        granted,
	}
	ip, ok := r.ctrl.Est.(core.Introspector)
	if !ok {
		return es
	}
	in := ip.Introspect(snap)
	es.Decision = in.Decision.String()
	es.Inputs = in.Inputs
	for _, iw := range in.Workers {
		es.Workers = append(es.Workers, obs.WorkerIntrospection{
			Worker:       int(iw.ID),
			Class:        iw.Class,
			QueueLen:     iw.QueueLen,
			MaxQueueLen:  iw.MaxQueueLen,
			ThresholdL:   iw.ThresholdL,
			Busy:         iw.Busy,
			Draining:     iw.Draining,
			WastedCycles: iw.WastedCycles,
		})
	}
	return es
}
