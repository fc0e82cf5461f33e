package sim

import (
	"palirria/internal/obs"
	"palirria/internal/topo"
)

// trace records an event if tracing is enabled. The disabled fast path is
// one nil comparison. topo.NoCore and obs.NoWorker are both -1, so core
// ids convert to obs worker ids with a plain cast.
func (e *engine) trace(kind obs.Kind, w, peer topo.CoreID, arg int, label string) {
	if e.ring == nil {
		return
	}
	e.ring.Emit(obs.Event{
		TS: e.now, Kind: kind,
		Worker: int32(w), Peer: int32(peer),
		Arg: int64(arg), Label: label,
	})
}
