package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the subset chrome://tracing and Perfetto consume).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// The trace uses one synthetic process; worker lanes are threads. Global
// events (grants, quantum boundaries) live on a reserved control lane so
// they do not collide with core 0.
const (
	chromePID        = 1
	chromeControlTID = 1_000_000
)

// chromeTID maps a worker id to a stable thread lane.
func chromeTID(worker int32) int {
	if worker == NoWorker {
		return chromeControlTID
	}
	return int(worker)
}

// WriteChrome serializes the trace as Chrome trace_event JSON. The
// output opens directly in chrome://tracing or Perfetto: one lane per
// worker carries the instant events (spawn, steal, probe, done, block,
// retire), a control lane carries grants and quantum boundaries, and
// counter tracks plot the allotment size, the raw vs. filtered desire,
// and the per-worker queue lengths sampled at quantum boundaries.
func (d *TraceData) WriteChrome(w io.Writer) error {
	tpm := d.TicksPerMicro
	if tpm <= 0 {
		tpm = 1
	}
	toUS := func(ts int64) float64 { return float64(ts) / tpm }

	out := chromeTrace{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"source":  "palirria/internal/obs",
			"events":  len(d.Events),
			"dropped": d.Dropped,
		},
		// Always materialize the array so the JSON says [] instead of null.
		TraceEvents: []chromeEvent{},
	}

	// Metadata: process and thread names. Collect every lane that appears.
	lanes := map[int]string{chromeControlTID: "scheduler control"}
	for id, name := range d.WorkerNames {
		lanes[chromeTID(id)] = name
	}
	for _, ev := range d.Events {
		if ev.Worker != NoWorker {
			if _, ok := lanes[chromeTID(ev.Worker)]; !ok {
				lanes[chromeTID(ev.Worker)] = fmt.Sprintf("worker %d", ev.Worker)
			}
		}
	}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "palirria"},
	})
	laneIDs := make([]int, 0, len(lanes))
	for tid := range lanes {
		laneIDs = append(laneIDs, tid)
	}
	sort.Ints(laneIDs)
	for _, tid := range laneIDs {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": lanes[tid]},
		})
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_sort_index", Phase: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"sort_index": tid},
		})
	}

	// Scheduler events as instants; grants double as a counter track.
	for _, ev := range d.Events {
		ce := chromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    toUS(ev.TS),
			PID:   chromePID,
			TID:   chromeTID(ev.Worker),
			Cat:   "scheduler",
		}
		args := map[string]any{}
		if ev.Peer != NoWorker {
			args["peer"] = ev.Peer
		}
		if ev.Label != "" {
			args["label"] = ev.Label
		}
		switch ev.Kind {
		case KindSpawn:
			args["queue_len"] = ev.Arg
		case KindGrant:
			args["workers"] = ev.Arg
			ce.Scope = "g"
			ce.Cat = "allotment"
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "allotment", Phase: "C", TS: toUS(ev.TS), PID: chromePID,
				Args: map[string]any{"workers": ev.Arg},
			})
		case KindQuantum:
			args["desired"] = ev.Arg
			ce.Scope = "g"
			ce.Cat = "estimator"
		}
		if len(args) > 0 {
			ce.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	// Estimator introspection as counter tracks: desire before and after
	// the false-positive filter, and the DMC queue view per worker.
	for _, s := range d.Snapshots {
		ts := toUS(s.Time)
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "desire", Phase: "C", TS: ts, PID: chromePID,
			Args: map[string]any{
				"raw":      s.RawDesire,
				"filtered": s.FilteredDesire,
				"granted":  s.Granted,
			},
		})
		for _, wi := range s.Workers {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: fmt.Sprintf("queue w%d", wi.ID), Phase: "C",
				TS: ts, PID: chromePID,
				Args: map[string]any{"len": wi.QueueLen, "max": wi.MaxQueueLen},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
