package wsrt

import (
	"fmt"
	"sync/atomic"
)

// gate is the submission gate: one word holding both the closed flag and
// the count of reserved backlog units, so SubmitQueueCap, the closed check
// and Shutdown's close are ordered by a single atomic. SubmitBatch reserves
// a unit before it pushes a job and popShard releases it when the job
// leaves its shard; every shard ring is at least SubmitQueueCap deep, so a
// push under a reservation cannot fail.
//
// The flag is bit 0 and the count lives in the bits above it, so a release
// never carries into the flag: a double release drives the count negative,
// which the audit reports, and can never reopen a closed gate.
type gate struct {
	limit int64
	_     [56]byte // keep the word off limit's line and the fields around the gate
	word  atomic.Int64
	_     [56]byte
}

const (
	gateClosed int64 = 1 // the flag bit
	gateUnit   int64 = 2 // one reserved unit
)

// reserve claims up to want units in one CAS and returns how many it got.
// A closed or full gate returns ErrClosed or ErrSubmitQueueFull without
// writing. The CAS is retried only when another producer or a consumer
// moved the word, so some caller always makes progress and the submit path
// cannot livelock at the cap.
func (g *gate) reserve(want int64) (int64, error) {
	for {
		w := g.word.Load()
		if w&gateClosed != 0 {
			return 0, ErrClosed
		}
		take := min(want, g.limit-(w>>1))
		if take <= 0 {
			return 0, ErrSubmitQueueFull
		}
		if g.word.CompareAndSwap(w, w+take*gateUnit) {
			return take, nil
		}
	}
}

// release returns n reserved units.
func (g *gate) release(n int64) { g.word.Add(-n * gateUnit) }

// close shuts the gate, reporting false when it was already closed. A CAS
// loop rather than atomic.Int64.Or, which the module's Go version lacks.
func (g *gate) close() bool {
	for {
		w := g.word.Load()
		if w&gateClosed != 0 {
			return false
		}
		if g.word.CompareAndSwap(w, w|gateClosed) {
			return true
		}
	}
}

func (g *gate) closed() bool { return g.word.Load()&gateClosed != 0 }

// reserved counts the units claimed and not yet released: queued jobs plus
// claims whose push is still under way. It is negative only after a
// double release.
func (g *gate) reserved() int64 { return g.word.Load() >> 1 }

// audit checks a quiescent gate: every reserved unit must be back. A
// positive count means a reservation leaked (the cap quietly shrank), a
// negative one that a unit was released twice (the bound went soft).
func (g *gate) audit() error {
	switch n := g.reserved(); {
	case n > 0:
		return fmt.Errorf("wsrt: submit gate: %d units still reserved after the shutdown flush", n)
	case n < 0:
		return fmt.Errorf("wsrt: submit gate: reserved count is %d: a unit was released twice", n)
	}
	return nil
}
