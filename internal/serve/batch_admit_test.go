package serve

import (
	"context"
	"errors"
	"testing"

	"palirria/internal/obs/stream"
	"palirria/internal/topo"
	"palirria/internal/wsrt"
)

// runPrefix builds a submitBatch stub that accepts exactly n jobs —
// running each accepted job inline through its wrapped body and firing
// its completion callback, like the runtime would — and rejects the rest
// with err.
func runPrefix(n int, err error) func([]wsrt.Job) (int, error) {
	return func(batch []wsrt.Job) (int, error) {
		if n > len(batch) {
			n = len(batch)
		}
		for k := 0; k < n; k++ {
			batch[k].Fn(nil)
			if batch[k].OnDone != nil {
				batch[k].OnDone()
			}
		}
		return n, err
	}
}

// TestPoolBatchAdmittedMatchesRuntimePrefix pins SubmitBatch's admission
// accounting to the runtime-accepted prefix under both partial-acceptance
// shapes of the wsrt.Runtime.SubmitBatch contract: (n, ErrSubmitQueueFull)
// and (n>0, ErrClosed). The admitted counter, the per-class ledger, and
// the admitted stream events must all equal exactly n — the old code
// counted the whole pool-admitted batch, inflating admitted past what the
// runtime held and breaking admitted == completed + cancelled at drain.
func TestPoolBatchAdmittedMatchesRuntimePrefix(t *testing.T) {
	cases := []struct {
		name     string
		accept   int
		rtErr    error
		wantTail error
	}{
		{"submit_queue_full", 2, wsrt.ErrSubmitQueueFull, ErrQueueFull},
		{"closed_mid_batch", 1, wsrt.ErrClosed, ErrDraining},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hub := stream.NewHub()
			sub := hub.Subscribe(stream.SubOptions{Buf: 256,
				Kinds: []stream.Kind{stream.KindAdmitted}})
			p := quietPool(t, Config{Name: "t", QueueCap: 8, Events: hub,
				Runtime: wsrt.Config{Mesh: topo.MustMesh(2, 1)}})
			p.submitBatch = runPrefix(tc.accept, tc.rtErr)

			fns := make([]wsrt.Func, 5)
			for i := range fns {
				fns[i] = func(c *wsrt.Ctx) {}
			}
			errs := p.SubmitBatch(context.Background(), fns)
			for i := 0; i < tc.accept; i++ {
				if errs[i] != nil {
					t.Fatalf("accepted entry %d = %v, want nil", i, errs[i])
				}
			}
			for i := tc.accept; i < len(fns); i++ {
				if !errors.Is(errs[i], tc.wantTail) {
					t.Fatalf("rejected entry %d = %v, want %v", i, errs[i], tc.wantTail)
				}
			}

			st := p.Stats()
			if st.Admitted != int64(tc.accept) {
				t.Fatalf("admitted = %d, want runtime-accepted prefix %d", st.Admitted, tc.accept)
			}
			if st.ByClass[ClassLow].Admitted != int64(tc.accept) {
				t.Fatalf("class admitted = %d, want %d", st.ByClass[ClassLow].Admitted, tc.accept)
			}
			if st.Completed != int64(tc.accept) || st.InFlight != 0 {
				t.Fatalf("completed %d / in-flight %d, want %d / 0",
					st.Completed, st.InFlight, tc.accept)
			}
			if st.Admitted != st.Completed+st.Cancelled {
				t.Fatalf("conservation broken: admitted %d != completed %d + cancelled %d",
					st.Admitted, st.Completed, st.Cancelled)
			}
			if held := p.inflight.Load(); held != 0 {
				t.Fatalf("slots leaked: %d of %d held", held, p.cfg.QueueCap)
			}

			sub.Close()
			admittedEvents := 0
			for ev := range sub.Events() {
				if ev.Kind == stream.KindAdmitted {
					admittedEvents++
				}
			}
			if admittedEvents != tc.accept {
				t.Fatalf("admitted events = %d, want %d", admittedEvents, tc.accept)
			}

			// Restore the real hand-off so Drain's shutdown path is exercised
			// against the actual runtime.
			p.submitBatch = p.rt.SubmitBatch
			drain(t, p)
		})
	}
}
