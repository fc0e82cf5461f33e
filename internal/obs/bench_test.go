package obs

import "testing"

// emitIfEnabled mirrors the platforms' instrumentation sites: a nil check
// guarding the ring emit. Benchmarked both ways to quantify the cost of
// disabled tracing (the acceptance bar is <2% on scheduler hot paths, which
// a single predictable branch is far under).
func emitIfEnabled(r *Ring, ev Event) {
	if r == nil {
		return
	}
	r.Emit(ev)
}

func BenchmarkEmitDisabled(b *testing.B) {
	ev := Event{Kind: KindSpawn, Worker: 1, Peer: NoWorker, Arg: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emitIfEnabled(nil, ev)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTracer()
	r := tr.NewRing(true) // overwrite: steady-state emit cost, no drops
	ev := Event{Kind: KindSpawn, Worker: 1, Peer: NoWorker, Arg: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.TS = int64(i)
		emitIfEnabled(r, ev)
	}
}

func BenchmarkRingEmitDrain(b *testing.B) {
	tr := newTestTracer(1 << 10)
	r := tr.NewRing(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
				r.Drain(func(Event) {})
			}
		}
	}()
	ev := Event{Kind: KindSteal, Worker: 1, Peer: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.TS = int64(i)
		r.Emit(ev)
	}
	b.StopTimer()
	done <- struct{}{}
	<-done
}
