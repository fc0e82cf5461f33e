package metrics

import (
	"testing"
	"testing/quick"
)

func TestTimelineRecordAndAt(t *testing.T) {
	var tl Timeline
	tl.Record(0, 5)
	tl.Record(100, 12)
	tl.Record(250, 5)
	cases := []struct {
		t    int64
		want int
	}{
		{-1, 0}, {0, 5}, {50, 5}, {100, 12}, {249, 12}, {250, 5}, {1000, 5},
	}
	for _, c := range cases {
		if got := tl.At(c.t); got != c.want {
			t.Errorf("At(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	if tl.Max() != 12 {
		t.Fatalf("Max = %d", tl.Max())
	}
}

func TestTimelineDedup(t *testing.T) {
	var tl Timeline
	tl.Record(0, 5)
	tl.Record(100, 5) // no change: not recorded
	tl.Record(200, 7)
	if got := len(tl.Points()); got != 2 {
		t.Fatalf("points = %d, want 2 (dedup)", got)
	}
}

func TestTimelineSameTimeOverwrites(t *testing.T) {
	var tl Timeline
	tl.Record(10, 5)
	tl.Record(10, 9)
	if got := len(tl.Points()); got != 1 {
		t.Fatalf("points = %d, want 1", got)
	}
	if tl.At(10) != 9 {
		t.Fatal("last write must win")
	}
}

func TestTimelineBackwardsPanics(t *testing.T) {
	var tl Timeline
	tl.Record(10, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for backwards time")
		}
	}()
	tl.Record(5, 6)
}

func TestTimelineArea(t *testing.T) {
	var tl Timeline
	tl.Record(0, 5)
	tl.Record(100, 10)
	tl.Record(200, 2)
	// Area to 300: 5*100 + 10*100 + 2*100 = 1700.
	if got := tl.Area(300); got != 1700 {
		t.Fatalf("Area(300) = %d, want 1700", got)
	}
	// Truncated integral.
	if got := tl.Area(150); got != 5*100+10*50 {
		t.Fatalf("Area(150) = %d", got)
	}
	// End before first point: zero.
	if got := tl.Area(0); got != 0 {
		t.Fatalf("Area(0) = %d", got)
	}
}

func TestTimelineAreaMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		var tl Timeline
		t0 := int64(0)
		for _, v := range raw {
			tl.Record(t0, int(v%30)+1)
			t0 += int64(v%50) + 1
		}
		// Area is monotonically non-decreasing in the end time.
		return tl.Area(t0) >= tl.Area(t0/2) && tl.Area(t0/2) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogDecisionsAndChanges(t *testing.T) {
	var l Log
	if l.Changes() != 0 {
		t.Fatal("empty log has changes")
	}
	l.Add(Decision{Time: 1, Desired: 12, Granted: 12})
	l.Add(Decision{Time: 2, Desired: 12, Granted: 12})
	l.Add(Decision{Time: 3, Desired: 20, Granted: 20})
	l.Add(Decision{Time: 4, Desired: 5, Granted: 5})
	if got := len(l.Decisions()); got != 4 {
		t.Fatalf("decisions = %d", got)
	}
	if got := l.Changes(); got != 2 {
		t.Fatalf("changes = %d, want 2", got)
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl Timeline
	if tl.At(100) != 0 || tl.Max() != 0 || tl.Area(100) != 0 {
		t.Fatal("empty timeline must be all zeros")
	}
}

func TestPointsDefensiveCopy(t *testing.T) {
	var tl Timeline
	tl.Record(0, 5)
	tl.Record(100, 12)
	pts := tl.Points()
	pts[0].Workers = 999
	if got := tl.At(0); got != 5 {
		t.Fatalf("mutating Points() leaked into the timeline: At(0) = %d", got)
	}
	if &pts[0] == &tl.Points()[0] {
		t.Fatal("Points() returned the internal slice")
	}
}

func TestDecisionsDefensiveCopy(t *testing.T) {
	var l Log
	l.Add(Decision{Time: 1, Desired: 5, Granted: 5})
	ds := l.Decisions()
	ds[0].Granted = 999
	if got := l.Decisions()[0].Granted; got != 5 {
		t.Fatalf("mutating Decisions() leaked into the log: %d", got)
	}
}

func TestAtMatchesLinearScan(t *testing.T) {
	linear := func(tl *Timeline, at int64) int {
		w := 0
		for _, p := range tl.Points() {
			if p.Time > at {
				break
			}
			w = p.Workers
		}
		return w
	}
	var tl Timeline
	times := []int64{0, 3, 7, 20, 21, 50, 1000}
	for i, tm := range times {
		tl.Record(tm, (i%4)+1)
	}
	for at := int64(-2); at < 1010; at++ {
		if got, want := tl.At(at), linear(&tl, at); got != want {
			t.Fatalf("At(%d) = %d, linear scan says %d", at, got, want)
		}
	}
}
