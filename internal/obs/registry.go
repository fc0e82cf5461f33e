package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one Prometheus label pair attached to a metric.
type Label struct {
	Key, Value string
}

// Histogram is a fixed-bucket distribution metric in the Prometheus
// histogram exposition shape: cumulative per-bucket counts plus a running
// sum and count. Observe is lock-free; buckets are immutable after
// construction.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket holding the target rank — the same
// convention as Prometheus's histogram_quantile. With no observations it
// returns 0; a target rank beyond the last finite bucket (observations
// that fell into the implicit +Inf bucket) clamps to the largest finite
// bound. The estimate is approximate under concurrent Observe: buckets
// are read one at a time, so a racing observation may or may not count.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			} else if ub <= 0 {
				lower = ub // negative first bucket: no zero base to lerp from
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (ub-lower)*frac
		}
		cum += c
	}
	// Rank lands in the +Inf bucket.
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefaultLatencyBuckets spans 100µs to 10s in roughly 1-2.5-5 steps — a
// reasonable default for admission and service latencies in seconds.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metricKind is the Prometheus TYPE of a metric family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered series.
type metric struct {
	name       string
	help       string
	kind       metricKind
	labels     string // preformatted {k="v",...} or ""
	labelPairs []Label
	value      func() float64
	hist       *Histogram
}

// Registry is a minimal dependency-free metric registry that renders
// Prometheus text exposition format. Registration happens at setup time;
// reads (scrapes) take the mutex only to copy the metric list — values
// themselves are atomics or caller-supplied sampling functions.
type Registry struct {
	mu sync.Mutex
	ms []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		parts[i] = l.Key + `="` + v + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	r.ms = append(r.ms, m)
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sampled by fn at scrape time — the natural
// shape for values the runtime already maintains atomically.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, kind: kindGauge,
		labels: formatLabels(labels), value: fn})
}

// CounterFunc registers a counter sampled by fn at scrape time (for
// monotonic values owned elsewhere, e.g. per-worker steal counts).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, help: help, kind: kindCounter,
		labels: formatLabels(labels), value: fn})
}

// NewHistogram builds a standalone histogram with the given upper bucket
// bounds (ascending; an implicit +Inf bucket is always added). Pass nil to
// get DefaultLatencyBuckets. Use Registry.Histogram to also register the
// series for scraping; a standalone histogram serves callers that need
// Observe/Quantile without a registry (e.g. a pool tracking admission
// latency for deadline admission when metrics are disabled).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
	sort.Float64s(h.bounds)
	return h
}

// Histogram registers and returns a histogram with the given upper bucket
// bounds (ascending; an implicit +Inf bucket is always added). Pass nil to
// get DefaultLatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: kindHistogram,
		labels: formatLabels(labels), labelPairs: append([]Label(nil), labels...), hist: h})
	return h
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format, grouped into families with one HELP/TYPE header
// each. Output order is fully deterministic — families sorted by name,
// series within a family sorted by rendered label set — regardless of
// registration order, so repeated scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := append([]*metric(nil), r.ms...)
	r.mu.Unlock()

	order := []string{}
	families := map[string][]*metric{}
	for _, m := range ms {
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	sort.Strings(order)
	for _, name := range order {
		fam := families[name]
		sort.SliceStable(fam, func(i, j int) bool { return fam[i].labels < fam[j].labels })
		if fam[0].help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, fam[0].help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].kind)
		for _, m := range fam {
			if m.kind == kindHistogram {
				writeHistogram(w, m)
				continue
			}
			v := m.value()
			if v == math.Trunc(v) && math.Abs(v) < 1e15 {
				fmt.Fprintf(w, "%s%s %d\n", m.name, m.labels, int64(v))
			} else {
				fmt.Fprintf(w, "%s%s %g\n", m.name, m.labels, v)
			}
		}
	}
}

// writeHistogram renders one histogram series: cumulative buckets with a
// le label, then _sum and _count.
func writeHistogram(w io.Writer, m *metric) {
	h := m.hist
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		le := formatLabels(append(append([]Label(nil), m.labelPairs...),
			Label{Key: "le", Value: strconv.FormatFloat(ub, 'g', -1, 64)}))
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, le, cum)
	}
	total := h.Count()
	inf := formatLabels(append(append([]Label(nil), m.labelPairs...), Label{Key: "le", Value: "+Inf"}))
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, inf, total)
	fmt.Fprintf(w, "%s_sum%s %g\n", m.name, m.labels, h.Sum())
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.labels, total)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
