package chaos

import (
	"context"
	"testing"
	"time"
)

// TestExpiredDAGBookedAsRefused submits a graph on a context that is
// already done, as a submitter descheduled past CancelAtUS does in
// dag-cancel-storm. The pool admits nothing, so the harness must book
// every node refused and its ledger must agree with the pool's counters;
// booking the nodes accepted shows as "pool counted 0 cancelled, ledger
// saw 3 discarded".
func TestExpiredDAGBookedAsRefused(t *testing.T) {
	sc := &Script{MeshW: 2, MeshH: 1, SubmitQueueCap: 16, PoolQueueCap: 16}
	p, err := newPool(sc, "chaos-dag", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := DAGSpec{Nodes: []DAGNodeSpec{{Leaves: 2}, {Leaves: 2, Deps: []int{0}}, {Leaves: 2, Deps: []int{0}}}}
	recs := make([]*jobRec, len(d.Nodes))
	for k, ns := range d.Nodes {
		recs[k] = &jobRec{leaves: ns.Leaves}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := &Result{}
	submitOneDAG(ctx, p, d, recs, 0, res)
	drainCtx, stop := context.WithTimeout(context.Background(), time.Minute)
	defer stop()
	if err := p.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	checkLedger(recs, res)
	completed, discarded := ledgerSplit(recs, func(int) bool { return true })
	checkPoolStats(p, res, completed, discarded)
	if !res.Ok() {
		t.Fatalf("ledger and pool disagree: %v", res.Violations)
	}
	if res.Rejected != int64(len(recs)) || res.Accepted != 0 {
		t.Fatalf("booked %d rejected / %d accepted, want %d / 0", res.Rejected, res.Accepted, len(recs))
	}
}
