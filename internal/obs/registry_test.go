package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFunc("palirria_steals_total", "Successful steals.",
		func() float64 { return 42 })
	reg.GaugeFunc("palirria_allotment_workers", "Current allotment size.",
		func() float64 { return 9 })
	reg.GaugeFunc("palirria_worker_queue_len", "Queue length.",
		func() float64 { return 3 }, Label{"core", "5"})
	reg.GaugeFunc("palirria_worker_queue_len", "Queue length.",
		func() float64 { return 0 }, Label{"core", "6"})

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP palirria_steals_total Successful steals.",
		"# TYPE palirria_steals_total counter",
		"palirria_steals_total 42",
		"# TYPE palirria_allotment_workers gauge",
		"palirria_allotment_workers 9",
		`palirria_worker_queue_len{core="5"} 3`,
		`palirria_worker_queue_len{core="6"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// One TYPE header per family even with several series.
	if n := strings.Count(out, "# TYPE palirria_worker_queue_len"); n != 1 {
		t.Errorf("family header repeated %d times", n)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("m", "", func() float64 { return 1 },
		Label{"l", `a"b\c` + "\nd"})
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `l="a\"b\\c\nd"`) {
		t.Fatalf("labels not escaped: %s", buf.String())
	}
}

func TestGaugeFloat(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("g", "", func() float64 { return 1.5 })
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "g 1.5") {
		t.Fatalf("float gauge rendered wrong: %s", buf.String())
	}
}

func TestHistogramObserveAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got < 5.56 || got > 5.57 {
		t.Fatalf("sum = %g, want ~5.565", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramDefaultBucketsAndLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("admission_seconds", "", nil, Label{Key: "pool", Value: "web"})
	h.Observe(0.0003)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `admission_seconds_bucket{pool="web",le="0.0005"} 1`) {
		t.Fatalf("labelled bucket missing:\n%s", out)
	}
	if !strings.Contains(out, `admission_seconds_count{pool="web"} 1`) {
		t.Fatalf("labelled count missing:\n%s", out)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got != 2000 {
		t.Fatalf("sum = %g, want 2000", got)
	}
}

// TestWritePrometheusGolden locks the full output byte-for-byte:
// families sorted by name, series within a family sorted by label set,
// regardless of (deliberately scrambled) registration order.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	// Register out of order on both axes: family names and labels.
	reg.GaugeFunc("zz_last_metric", "Registered first, rendered last.",
		func() float64 { return 7 })
	reg.GaugeFunc("mid_queue_len", "Queue length.",
		func() float64 { return 3 }, Label{"core", "9"})
	reg.GaugeFunc("mid_queue_len", "Queue length.",
		func() float64 { return 1 }, Label{"core", "10"})
	reg.GaugeFunc("mid_queue_len", "Queue length.",
		func() float64 { return 2 }, Label{"core", "2"})
	reg.CounterFunc("aa_first_total", "Registered last, rendered first.",
		func() float64 { return 5 })

	const golden = `# HELP aa_first_total Registered last, rendered first.
# TYPE aa_first_total counter
aa_first_total 5
# HELP mid_queue_len Queue length.
# TYPE mid_queue_len gauge
mid_queue_len{core="10"} 1
mid_queue_len{core="2"} 2
mid_queue_len{core="9"} 3
# HELP zz_last_metric Registered first, rendered last.
# TYPE zz_last_metric gauge
zz_last_metric 7
`
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		if buf.String() != golden {
			t.Fatalf("render %d differs from golden:\n--- got ---\n%s--- want ---\n%s",
				i, buf.String(), golden)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", []float64{0.01, 0.1, 1})

	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", got)
	}

	// 100 samples: 50 in (0, 0.01], 40 in (0.01, 0.1], 10 in (0.1, 1].
	for i := 0; i < 50; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}

	// Median rank 50 is exactly the top of the first bucket.
	if got := h.Quantile(0.5); got != 0.01 {
		t.Fatalf("p50 = %g, want 0.01", got)
	}
	// Buckets span ranks 1..50, 51..90, 91..100; rank 99 interpolates
	// 9/10 into the third bucket.
	want := 0.1 + (1-0.1)*(99-90)/10.0
	if got := h.Quantile(0.99); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("p99 = %g, want %g", got, want)
	}
	// Quantiles are monotone and clamped.
	if h.Quantile(-1) > h.Quantile(0.5) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("clamping broken")
	}

	// Observations beyond the last finite bound clamp to it.
	h2 := r.Histogram("q2", "", []float64{0.01})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 0.01 {
		t.Fatalf("overflow quantile = %g, want last finite bound 0.01", got)
	}
}
