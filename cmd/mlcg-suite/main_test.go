package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcg/internal/graph"
)

func TestRunExportsSuite(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-dir", dir, "-format", "metis"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errb.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.graph"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 20 {
		t.Fatalf("%d files, want 20", len(files))
	}
	// Spot-check one export loads and validates.
	f, err := os.Open(filepath.Join(dir, "kron21.graph"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.ReadMetis(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kron21") {
		t.Error("summary row missing")
	}
}

func TestRunStallcheck(t *testing.T) {
	if testing.Short() {
		t.Skip("coarsens the whole suite")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-dir", dir, "-stallcheck", "-metrics"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "coarsen") {
		t.Error("stallcheck column header missing")
	}
	// Every row must surface the coarsening outcome — ok or STALL.
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, ".graph") && !strings.Contains(line, "ok(") && !strings.Contains(line, "STALL(") {
			t.Errorf("row without coarsen outcome: %q", line)
		}
	}
	if !strings.Contains(s, "== counters (whole trace) ==") {
		t.Error("metrics dump missing")
	}
}

func TestRunBadFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "nope"}, &out, &errb); code == 0 {
		t.Error("bad format accepted")
	}
	if code := run([]string{"-zzz"}, &out, &errb); code == 0 {
		t.Error("bad flag accepted")
	}
}

// TestRunBadNameStartsNothing checks that a bad -mapper or -construct fails
// before the trace and CPU profile start, so a later run in the same
// process can start its own.
func TestRunBadNameStartsNothing(t *testing.T) {
	dir := t.TempDir()
	obsFlags := func(name string) []string {
		return []string{
			"-dir", dir,
			"-trace", filepath.Join(dir, name+".json"),
			"-cpuprofile", filepath.Join(dir, name+".pprof"),
		}
	}
	for _, bad := range [][]string{{"-mapper", "nope"}, {"-construct", "nope"}} {
		var out, errb bytes.Buffer
		if code := run(append(obsFlags(bad[0][1:]), bad...), &out, &errb); code == 0 {
			t.Fatalf("%v accepted", bad)
		}
		if !strings.Contains(errb.String(), "nope") {
			t.Errorf("%v: error %q does not name the value", bad, errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run(obsFlags("good"), &out, &errb); code != 0 {
		t.Fatalf("run after bad names: exit %d (%s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "trace written to") {
		t.Error("trace not written")
	}
}
