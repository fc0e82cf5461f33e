package main

import "testing"

// TestRunStaticFigures exercises the cheap figure paths end to end (the
// suite-driving paths are covered by the experiments package tests).
func TestRunStaticFigures(t *testing.T) {
	for _, fig := range []int{1, 2, 4, 9} {
		if err := run(fig, false, false, false, false, false, 1); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
	}
}

func TestRunMultiprogFlag(t *testing.T) {
	if err := run(0, false, false, true, false, false, 1); err != nil {
		t.Fatal(err)
	}
}

// TestSelectsOutput pins the usage guard: a -fig outside 1-9 selects
// nothing in run, so it must get the usage text rather than an empty run.
func TestSelectsOutput(t *testing.T) {
	for _, c := range []struct {
		fig    int
		tables bool
		want   bool
	}{
		{0, false, false},
		{0, true, true},
		{1, false, true},
		{9, false, true},
		{10, false, false},
		{12, true, false},
		{-1, false, false},
	} {
		if got := selectsOutput(c.fig, c.tables); got != c.want {
			t.Errorf("selectsOutput(%d, %v) = %v, want %v", c.fig, c.tables, got, c.want)
		}
	}
}
