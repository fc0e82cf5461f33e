package wsrt

import (
	"errors"
	"testing"
)

// TestGateReserveCloseAudit walks the submission gate through its four
// edges on a bare value — no Runtime, no workers: a claim at the cap
// boundary is partial, a closed gate refuses without writing, an
// unreleased unit fails the audit, and so does a unit released twice,
// which must leave a closed gate closed.
func TestGateReserveCloseAudit(t *testing.T) {
	g := gate{limit: 5}
	if got, err := g.reserve(3); got != 3 || err != nil {
		t.Fatalf("reserve(3) on an empty gate = %d, %v; want 3, nil", got, err)
	}
	// Partial claim at the boundary: 2 of the 4 asked for are left.
	if got, err := g.reserve(4); got != 2 || err != nil {
		t.Fatalf("reserve(4) with 2 free = %d, %v; want 2, nil", got, err)
	}
	if got, err := g.reserve(1); got != 0 || !errors.Is(err, ErrSubmitQueueFull) {
		t.Fatalf("reserve at the cap = %d, %v; want 0, ErrSubmitQueueFull", got, err)
	}
	g.release(1)
	if got, err := g.reserve(8); got != 1 || err != nil {
		t.Fatalf("reserve after one release = %d, %v; want 1, nil", got, err)
	}

	// Refusal after close, without touching the count.
	if !g.close() {
		t.Fatal("close of an open gate reported it already closed")
	}
	if g.close() {
		t.Fatal("second close reported success")
	}
	if got, err := g.reserve(1); got != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("reserve on a closed gate = %d, %v; want 0, ErrClosed", got, err)
	}
	if g.reserved() != 5 {
		t.Fatalf("reserved = %d after a refused reserve, want 5", g.reserved())
	}

	// An unreleased unit fails the audit.
	g.release(4)
	if g.audit() == nil {
		t.Fatal("audit passed with a unit still reserved")
	}
	g.release(1)
	if err := g.audit(); err != nil {
		t.Fatalf("audit of a balanced gate: %v", err)
	}

	// A double release fails the audit and leaves the gate closed.
	g.release(1)
	if g.audit() == nil {
		t.Fatal("audit missed a double release")
	}
	if !g.closed() {
		t.Fatal("a double release reopened the gate")
	}
	if got, err := g.reserve(1); got != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("reserve after a double release = %d, %v; want 0, ErrClosed", got, err)
	}
}
