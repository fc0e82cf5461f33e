package cluster

import "testing"

func sampleRecord() Record {
	return Record{
		ID: "http://n1:8077", Addr: "http://n1:8077", Role: RoleServe,
		Epoch: 42, Heartbeat: 7,
		Desire: 3, Allotment: 8, Spare: 5, Queued: 12, QueueCap: 128,
		Shed: false, AdmitP99: 0.000123, UnixNS: 1700000000000000000,
	}
}

func TestRecordSignVerify(t *testing.T) {
	r := sampleRecord()
	r.Sign("s3cret")
	if r.Sig == "" {
		t.Fatal("signing left Sig empty")
	}
	if !r.Verify("s3cret") {
		t.Fatal("freshly signed record does not verify")
	}
	if r.Verify("other") {
		t.Fatal("record verifies under the wrong secret")
	}

	// Tampering with any signed field must invalidate the signature.
	for name, mutate := range map[string]func(*Record){
		"desire":    func(r *Record) { r.Desire++ },
		"spare":     func(r *Record) { r.Spare-- },
		"heartbeat": func(r *Record) { r.Heartbeat++ },
		"epoch":     func(r *Record) { r.Epoch++ },
		"addr":      func(r *Record) { r.Addr = "http://evil:1" },
		"shed":      func(r *Record) { r.Shed = !r.Shed },
		"p99":       func(r *Record) { r.AdmitP99 *= 2 },
	} {
		rr := sampleRecord()
		rr.Sign("s3cret")
		mutate(&rr)
		if rr.Verify("s3cret") {
			t.Errorf("tampered %s still verifies", name)
		}
	}
}

func TestRecordUnsignedCluster(t *testing.T) {
	r := sampleRecord()
	r.Sign("")
	if r.Sig != "" {
		t.Fatal("empty secret must leave the record unsigned")
	}
	if !r.Verify("") {
		t.Fatal("unsigned record must verify in an unsigned cluster")
	}
	if r.Verify("s3cret") {
		t.Fatal("unsigned record must not verify in a signed cluster")
	}
}

func TestRecordNewer(t *testing.T) {
	a := Record{Epoch: 1, Heartbeat: 5}
	for _, tc := range []struct {
		epoch int64
		hb    uint64
		want  bool
	}{
		{1, 6, true},    // later heartbeat, same epoch
		{1, 5, false},   // identical
		{1, 4, false},   // older heartbeat
		{2, 0, true},    // restart: higher epoch supersedes any heartbeat
		{0, 100, false}, // stale incarnation
	} {
		b := Record{Epoch: tc.epoch, Heartbeat: tc.hb}
		if got := b.Newer(&a); got != tc.want {
			t.Errorf("(%d,%d).Newer(1,5) = %v, want %v", tc.epoch, tc.hb, got, tc.want)
		}
	}
}
