package metrics

import (
	"fmt"
	"sort"
)

// Point is one step of the allotment-size timeline.
type Point struct {
	// Time in cycles.
	Time int64
	// Workers is the allotment size from Time onward.
	Workers int
}

// Timeline is a step function of the worker count over time.
type Timeline struct {
	points []Point
}

// Record appends a step. Time must be non-decreasing; recording the same
// time overwrites the previous value (the last write wins within a cycle).
func (tl *Timeline) Record(t int64, workers int) {
	if n := len(tl.points); n > 0 {
		if t < tl.points[n-1].Time {
			panic(fmt.Sprintf("metrics: time went backwards: %d < %d", t, tl.points[n-1].Time))
		}
		if t == tl.points[n-1].Time {
			tl.points[n-1].Workers = workers
			return
		}
		if tl.points[n-1].Workers == workers {
			return // no change; keep the series minimal
		}
	}
	tl.points = append(tl.points, Point{Time: t, Workers: workers})
}

// Points returns a copy of the recorded steps; callers may modify it
// freely.
func (tl *Timeline) Points() []Point {
	return append([]Point(nil), tl.points...)
}

// At returns the worker count in effect at time t (0 before the first
// record). Points are time-sorted, so this is a binary search.
func (tl *Timeline) At(t int64) int {
	// First point strictly after t; the one before it is in effect.
	i := sort.Search(len(tl.points), func(i int) bool { return tl.points[i].Time > t })
	if i == 0 {
		return 0
	}
	return tl.points[i-1].Workers
}

// Max returns the peak worker count.
func (tl *Timeline) Max() int {
	max := 0
	for _, p := range tl.points {
		if p.Workers > max {
			max = p.Workers
		}
	}
	return max
}

// Area integrates the worker count from the first record until end: the
// worker-cycle resource consumption that the accuracy criterion (paper §6)
// trades off against execution time.
func (tl *Timeline) Area(end int64) int64 {
	var area int64
	for i, p := range tl.points {
		if p.Time >= end {
			break
		}
		next := end
		if i+1 < len(tl.points) && tl.points[i+1].Time < end {
			next = tl.points[i+1].Time
		}
		area += int64(p.Workers) * (next - p.Time)
	}
	return area
}

// Decision is one quantum's answer, the record every consumer of the
// estimator reads: the estimate, what the false-positive filter let
// through, and the system layer's grant.
type Decision struct {
	// Time of the quantum boundary, in the platform's ticks.
	Time int64
	// Raw is the estimator's unfiltered desired worker count.
	Raw int
	// Desired is the (filtered) worker count the application requested.
	Desired int
	// Granted is the allotment size the system layer provided.
	Granted int
}

// Log accumulates decisions.
type Log struct {
	decisions []Decision
}

// Add appends a decision.
func (l *Log) Add(d Decision) { l.decisions = append(l.decisions, d) }

// Decisions returns a copy of the recorded decisions; callers may modify
// it freely.
func (l *Log) Decisions() []Decision {
	return append([]Decision(nil), l.decisions...)
}

// Changes counts the decisions whose grant differed from the previous one.
func (l *Log) Changes() int {
	n := 0
	prev := -1
	for _, d := range l.decisions {
		if prev >= 0 && d.Granted != prev {
			n++
		}
		prev = d.Granted
	}
	return n
}
