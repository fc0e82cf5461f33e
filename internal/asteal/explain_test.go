package asteal

import (
	"encoding/json"
	"testing"

	"palirria/internal/core"
)

// TestExplanationBytes pins ASTEAL's estimator-trace record byte for byte
// (the report goldens carry no ASTEAL estimator_trace): a deprived second
// quantum over a 12-worker allotment with one unread member, one draining
// member and per-worker queue and busy readings. The bytes are the
// estimator-trace wire format (field order, names and omissions): change
// them only with a deliberate format change.
func TestExplanationBytes(t *testing.T) {
	s := snap(t, 2, 3000)
	s.Time = 700000
	for i, id := range s.Allotment.Members() {
		ws := s.Workers[id]
		ws.QueueLen, ws.MaxQueueLen = i%3, i%5
		ws.Busy, ws.Draining = i%2 == 0, i == 4
	}
	delete(s.Workers, s.Allotment.Members()[7])
	c := core.NewController(New())
	c.Step(s)
	c.Record(s.Time, 12)
	c.Step(s)
	c.Record(s.Time, 12)
	b, err := json.Marshal(c.Explain(s))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"time":700000,"estimator":"asteal","allotment":12,"decision":"increase","raw_desire":24,"filtered_desire":24,"granted":12,` +
		`"workers":[{"worker":20,"queue_len":0,"max_queue_len":0,"busy":true,"wasted_cycles":3000},` +
		`{"worker":12,"queue_len":1,"max_queue_len":1,"busy":false,"wasted_cycles":3000},` +
		`{"worker":19,"queue_len":2,"max_queue_len":2,"busy":true,"wasted_cycles":3000},` +
		`{"worker":21,"queue_len":0,"max_queue_len":3,"busy":false,"wasted_cycles":3000},` +
		`{"worker":28,"queue_len":1,"max_queue_len":4,"busy":true,"draining":true,"wasted_cycles":3000},` +
		`{"worker":4,"queue_len":2,"max_queue_len":0,"busy":false,"wasted_cycles":3000},` +
		`{"worker":11,"queue_len":0,"max_queue_len":1,"busy":true,"wasted_cycles":3000},` +
		`{"worker":13,"queue_len":0,"max_queue_len":0,"busy":false,"wasted_cycles":0},` +
		`{"worker":18,"queue_len":2,"max_queue_len":3,"busy":true,"wasted_cycles":3000},` +
		`{"worker":22,"queue_len":0,"max_queue_len":4,"busy":false,"wasted_cycles":3000},` +
		`{"worker":27,"queue_len":1,"max_queue_len":0,"busy":true,"wasted_cycles":3000},` +
		`{"worker":29,"queue_len":2,"max_queue_len":1,"busy":false,"wasted_cycles":3000}],` +
		`"inputs":{"delta":0.9,"desire":24,"inefficient":0,"rho":2,"satisfied":0,"total_cycles":1200000,"wasted_cycles":33000}}`
	if string(b) != want {
		t.Fatalf("explanation bytes:\n got %s\nwant %s", b, want)
	}
}
