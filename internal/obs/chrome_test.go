package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"

	"palirria/internal/core"
	"palirria/internal/topo"
)

// decodeChrome parses exporter output back into the generic structure
// the validity checks inspect.
func decodeChrome(t *testing.T, data []byte) chromeTrace {
	t.Helper()
	var out chromeTrace
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, data)
	}
	return out
}

// checkChromeValid asserts the invariants every exporter output must
// satisfy: parseable JSON, non-decreasing timestamps per phase-i lane,
// one stable pid, named threads for every referenced tid.
func checkChromeValid(t *testing.T, data []byte) {
	t.Helper()
	out := decodeChrome(t, data)
	named := map[int]bool{}
	lastTS := map[int]float64{}
	for _, ev := range out.TraceEvents {
		if ev.Phase == "M" {
			if ev.Name == "thread_name" {
				named[ev.TID] = true
			}
			continue
		}
		if ev.PID != chromePID {
			t.Fatalf("unstable pid %d on %+v", ev.PID, ev)
		}
		if ev.TS < 0 {
			t.Fatalf("negative timestamp on %+v", ev)
		}
		if ev.Phase == "i" {
			if ev.TS < lastTS[ev.TID] {
				t.Fatalf("lane %d went backwards: %v after %v", ev.TID, ev.TS, lastTS[ev.TID])
			}
			lastTS[ev.TID] = ev.TS
			if !named[ev.TID] {
				t.Fatalf("instant event on unnamed lane %d", ev.TID)
			}
		}
	}
}

func TestWriteChromeBasic(t *testing.T) {
	tr := newTestTracer(64)
	r := tr.NewRing(false)
	tr.SetWorkerName(3, "worker 3 (0,3)")
	r.Emit(Event{TS: 100, Kind: KindSpawn, Worker: 3, Peer: NoWorker, Arg: 2, Label: "fib(7)"})
	r.Emit(Event{TS: 150, Kind: KindSteal, Worker: 4, Peer: 3, Label: "fib(6)"})
	r.Emit(Event{TS: 151, Kind: KindProbeFail, Worker: 5, Peer: 3})
	tr.Quantum(r, 200, NoWorker, "", core.Explanation{
		Time: 200, Estimator: "palirria", Allotment: 5, Decision: "increase",
		RawDesire: 9, FilteredDesire: 9, Granted: 9,
		Workers: []core.IntrospectedWorker{{ID: 3, Class: "X", QueueLen: 2, MaxQueueLen: 4, ThresholdL: 1}},
	})

	var buf bytes.Buffer
	if err := tr.Drain().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	checkChromeValid(t, buf.Bytes())

	out := decodeChrome(t, buf.Bytes())
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	want := map[string]bool{
		"spawn": false, "steal": false, "probefail": false,
		"grant": false, "quantum": false, "allotment": false, "desire": false,
		"queue w3": false,
	}
	for _, ev := range out.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("expected %q event in chrome trace", name)
		}
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTracer().Drain().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, buf.Bytes())
	if out.TraceEvents == nil {
		t.Fatal("traceEvents serialized as null, want []")
	}
}

func TestWriteChromeTicksPerMicro(t *testing.T) {
	tr := newTestTracer(8)
	r := tr.NewRing(false)
	r.Emit(Event{TS: 5000, Kind: KindTaskDone, Worker: 0})
	d := tr.Drain()
	d.TicksPerMicro = 1000 // nanosecond ticks
	var buf bytes.Buffer
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := decodeChrome(t, buf.Bytes())
	found := false
	for _, ev := range out.TraceEvents {
		if ev.Name == "done" {
			found = true
			if ev.TS != 5 {
				t.Fatalf("ts = %v µs, want 5", ev.TS)
			}
		}
	}
	if !found {
		t.Fatal("done event missing")
	}
}

// FuzzWriteChrome feeds arbitrary event streams through the exporter and
// checks the output is always valid: well-formed JSON, ordered lanes,
// stable pid, named tids.
func FuzzWriteChrome(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 0})
	f.Add([]byte{7, 255, 255, 3, 9, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newTestTracer(256)
		rings := map[int32]*Ring{}
		var ts int64
		// Decode the fuzz input as a packed event stream: each event is
		// 12 bytes (kind, worker, peer, dt, arg). Timestamps only move
		// forward, like a real run.
		for len(data) >= 12 {
			kind := Kind(data[0] % uint8(NumKinds))
			worker := int32(int8(data[1]) % 16)
			peer := int32(int8(data[2]) % 16)
			ts += int64(data[3])
			arg := int64(binary.LittleEndian.Uint64(data[4:12]) % 1_000_000)
			data = data[12:]
			r := rings[worker]
			if r == nil {
				r = tr.NewRing(false)
				rings[worker] = r
			}
			if kind != KindQuantum {
				r.Emit(Event{TS: ts, Kind: kind, Worker: worker, Peer: peer, Arg: arg})
				continue
			}
			tr.Quantum(r, ts, worker, "", core.Explanation{
				Time: ts, Estimator: "palirria", Allotment: int(arg % 64),
				RawDesire: int(arg % 64), FilteredDesire: int(arg % 32), Granted: int(arg % 16),
				Workers: []core.IntrospectedWorker{{ID: topo.CoreID(worker), QueueLen: int(arg % 8)}},
			})
		}
		var buf bytes.Buffer
		if err := tr.Drain().WriteChrome(&buf); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		checkChromeValid(t, buf.Bytes())
	})
}
