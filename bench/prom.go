package main

import (
	"bufio"
	"io"
	"strconv"
	"strings"

	"palirria/internal/obs"
)

// promSums parses Prometheus text exposition and sums every series of a
// metric name over its labels: the benchmark wants "steals of this
// process", not one line per worker.
func promSums(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// registrySums reads an in-process registry through the same text format
// the daemons serve, so both kinds of workload share one reader.
func registrySums(reg *obs.Registry) (map[string]float64, error) {
	var b strings.Builder
	reg.WritePrometheus(&b)
	return promSums(strings.NewReader(b.String()))
}
