package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all.golden")

// TestRunStaticFigures exercises the cheap figure paths end to end (the
// suite-driving paths are covered by the experiments package tests).
func TestRunStaticFigures(t *testing.T) {
	for _, fig := range []int{1, 2, 3, 4, 9} {
		if err := run(io.Discard, fig, false, false, false, false, 1); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
	}
}

func TestRunMultiprogFlag(t *testing.T) {
	if err := run(io.Discard, 0, false, false, true, false, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAllOutputGolden pins every simulated paper table: `palirria-bench
// -all` is deterministic apart from main's harness-time line, which run
// does not print. A change that is not a deliberate model change must pass
// it unregenerated. Refresh with:
//
//	go test ./cmd/palirria-bench -run AllOutputGolden -update-golden
func TestAllOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation (seconds)")
	}
	var buf bytes.Buffer
	if err := run(&buf, 0, false, false, false, true, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("-all output drifted from %s at line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
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
