package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcg/internal/coarsen"
	"mlcg/internal/hierfmt"
	"mlcg/internal/obs"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunGeneratedInput(t *testing.T) {
	out, _, code := runCLI(t, "-gen", "grid2d", "-quality", "-verify", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"input: n=90000", "levels=", "verification passed", "mapping quality"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	coarse := filepath.Join(dir, "coarse.graph")
	// Generate, coarsen, export as metis.
	_, _, code := runCLI(t, "-gen", "trimesh", "-out", coarse, "-outformat", "metis")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if _, err := os.Stat(coarse); err != nil {
		t.Fatal(err)
	}
	// Re-load the exported coarse graph.
	out, _, code := runCLI(t, "-in", coarse, "-format", "metis", "-cutoff", "10")
	if code != 0 {
		t.Fatalf("re-load exit %d", code)
	}
	if !strings.Contains(out, "input: n=") {
		t.Errorf("unexpected output %q", out)
	}
}

func TestRunDiscardedLevel(t *testing.T) {
	// HEC collapses a 101-vertex star to one vertex; the discard rule
	// drops that level, and the CLI must say so instead of printing a
	// bare levels=0.
	var star strings.Builder
	star.WriteString("101 100\n")
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&star, "0 %d 1\n", i)
	}
	path := filepath.Join(t.TempDir(), "star.txt")
	if err := os.WriteFile(path, []byte(star.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errs, code := runCLI(t, "-in", path, "-mapper", "hec")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	for _, want := range []string{"levels=0", "discarded: final level collapsed too far (n=101 nc=1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSaveHierarchy(t *testing.T) {
	// The two-hop case saves a hierarchy whose aggregates may be
	// disconnected by design: -load -verify must not judge it by the
	// default -mapper.
	for _, gen := range [][]string{
		{"-gen", "trimesh", "-compress"},
		{"-gen", "rmat", "-mapper", "twohop"},
	} {
		dir := t.TempDir()
		hier := filepath.Join(dir, "h"+hierfmt.FileExt)
		_, errs, code := runCLI(t, append(gen, "-save", hier)...)
		if code != 0 {
			t.Fatalf("%v: exit %d (%s)", gen, code, errs)
		}
		h, _, err := hierfmt.LoadFile(hier, hierfmt.LoadOptions{FullValidate: true})
		if err != nil {
			t.Fatalf("%v: saved container unreadable: %v", gen, err)
		}
		if h.Levels() < 2 {
			t.Fatalf("%v: saved hierarchy has %d levels", gen, h.Levels())
		}

		// Reload through the CLI: stats, quality, and verification come
		// from the container, no recoarsening.
		out, errs, code := runCLI(t, "-load", hier, "-quality", "-verify")
		if code != 0 {
			t.Fatalf("%v: load exit %d (%s)", gen, code, errs)
		}
		for _, want := range []string{"input: n=", "levels=", "connectivity not checked", "verification passed", "mapping quality"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: load output missing %q", gen, want)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                     // no input
		{"-gen", "nope"},                       // unknown generator
		{"-gen", "grid2d", "-mapper", "xx"},    // unknown mapper
		{"-gen", "grid2d", "-construct", "xx"}, // unknown builder
		{"-gen", "grid2d", "-construct", "probe"}, // removed probe mode
		{"-gen", "grid2d", "-builder", "sort"},    // removed flag
		{"-loadhier", "x"},                        // removed flag
		{"-in", "/nonexistent/file"},              // missing file
		{"-badflag"},                              // flag error
	}
	for _, args := range cases {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
	}
}

// TestRunConstruct drives -construct with every registered builder: a
// fixed builder names itself on every level row, auto names the builder it
// dispatched to and the rule's reason.
func TestRunConstruct(t *testing.T) {
	fixed := map[string]bool{}
	for _, name := range coarsen.BuilderNames() {
		fixed[name] = name != "auto"
	}
	for _, name := range coarsen.BuilderNames() {
		out, errs, code := runCLI(t, "-gen", "trimesh", "-construct", name)
		if code != 0 {
			t.Fatalf("%s: exit %d (%s)", name, code, errs)
		}
		var rows int
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) < 6 || f[0] == "level" || strings.Contains(f[0], "=") {
				continue
			}
			rows++
			col := strings.Join(f[5:], " ")
			if fixed[name] {
				if col != name {
					t.Errorf("%s: level row names %q", name, col)
				}
				continue
			}
			b, reason, ok := strings.Cut(col, " ")
			if !fixed[b] || !ok || !strings.HasPrefix(reason, "(") {
				t.Errorf("auto: level row names %q, want a fixed builder and its reason", col)
			}
		}
		if rows == 0 {
			t.Errorf("%s: no level rows in %q", name, out)
		}
	}
}

func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	out, errs, code := runCLI(t, "-gen", "trimesh", "-trace", trace, "-metrics")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	if err := obs.CheckTraceFile(trace, obs.CheckOptions{RequireCoarsen: true}); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	for _, want := range []string{"trace written to", "== counters (whole trace) ==", "cas_retries", "hash_probes", "imb"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The metrics dump appears even without a trace file.
	out, _, code = runCLI(t, "-gen", "grid2d", "-metrics")
	if code != 0 {
		t.Fatalf("metrics-only exit %d", code)
	}
	if !strings.Contains(out, "== kernels (by total busy) ==") {
		t.Error("metrics-only run missing kernel rollup")
	}
}

func TestRunAllMappersSmoke(t *testing.T) {
	for _, mapper := range []string{"hecseq", "hem", "twohop", "mis2", "mis2fast"} {
		_, errs, code := runCLI(t, "-gen", "trimesh", "-mapper", mapper, "-verify")
		if code != 0 && mapper != "twohop" {
			t.Errorf("%s: exit %d (%s)", mapper, code, errs)
		}
	}
}
