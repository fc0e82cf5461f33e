package httpapi

import (
	"net/url"
	"testing"
	"time"

	"palirria/internal/serve"
	"palirria/internal/workload"
)

// FuzzSubmitQuery drives the /submit and /submit-dag query decoder with
// arbitrary query strings. It must never panic, and whatever it accepts
// must be a job the pool can be handed: bounded fanout, work and count, a
// valid class, a batch only when low-class and deadline-free, and a DAG
// only when it is a registered one. No pool runs.
func FuzzSubmitQuery(f *testing.F) {
	// The handler tests' bad parameters, and a few good ones.
	for _, q := range []string{
		"fanout=-1", "work=abc", "count=0", "count=abc", "tenant=nope",
		"workload=nope", "work=-1", "class=urgent", "deadline=-5ms", "deadline=soon",
		"count=2&class=high", "count=2&deadline=1s", "deadline=0s",
		"fanout=8&work=1000", "fanout=4&work=500&count=6", "fanout=4&work=500&class=normal&deadline=30s",
		"workload=mapreduce&work=500&class=high", "workload=pipeline&deadline=1ns",
	} {
		f.Add(q)
	}
	now := time.Now()
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as http.Request.URL.Query does
		for _, dag := range []bool{false, true} {
			j, err := parseJobQuery(q, dag, now)
			if err != nil {
				continue
			}
			if j.fanout < 1 || j.fanout > 1<<20 || j.work < 0 || j.work > 1<<30 || j.count < 1 || j.count > 1<<14 {
				t.Fatalf("%q (dag=%v) accepted out of bounds: %+v", raw, dag, j)
			}
			if j.class < serve.ClassLow || j.class >= serve.NumClasses || !(j.deadline.IsZero() || j.deadline.After(now)) {
				t.Fatalf("%q (dag=%v) accepted class %d, deadline %v", raw, dag, j.class, j.deadline)
			}
			if j.count > 1 && (j.class != serve.ClassLow || !j.deadline.IsZero()) {
				t.Fatalf("%q accepted a batch of %d with class %v, deadline %v", raw, j.count, j.class, j.deadline)
			}
			if dag != (j.dag != nil) {
				t.Fatalf("%q (dag=%v) decoded graph %v", raw, dag, j.dag)
			}
			if dag {
				if def, err := workload.GetDAG(j.dag.Name); err != nil || def != j.dag {
					t.Fatalf("%q accepted unregistered DAG %q", raw, j.dag.Name)
				}
			}
		}
	})
}
