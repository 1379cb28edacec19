package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunFig1WithDots(t *testing.T) {
	dir := t.TempDir()
	out, errs, code := runCLI(t, "-fig", "1", "-dot", dir, "-runs", "1", "-only", "ppa")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	if !strings.Contains(out, "hec") || !strings.Contains(out, "DOT files written") {
		t.Errorf("output:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.dot"))
	if err != nil || len(files) < 10 {
		t.Errorf("dot files: %v (%v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil || !strings.Contains(string(data), "graph") {
		t.Errorf("dot content invalid: %v", err)
	}
}

func TestDotsFollowSeed(t *testing.T) {
	// The DOT drawing must show the mapping the table printed, at the
	// requested seed: hem.dot's distinct group ids (its u/g labels)
	// number exactly the printed nc.
	dir := t.TempDir()
	out, errs, code := runCLI(t, "-fig", "1", "-seed", "7", "-dot", dir, "-only", "ppa")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	nc := -1
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "hem" {
			nc, _ = strconv.Atoi(f[1])
		}
	}
	if nc <= 0 {
		t.Fatalf("no hem row in:\n%s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "hem.dot"))
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]bool{}
	for _, m := range regexp.MustCompile(`label="\d+/(\d+)"`).FindAllStringSubmatch(string(data), -1) {
		groups[m[1]] = true
	}
	if len(groups) != nc {
		t.Errorf("hem.dot draws %d groups, the table printed nc=%d", len(groups), nc)
	}
}

func TestRunFig2(t *testing.T) {
	out, errs, code := runCLI(t, "-fig", "2", "-runs", "1", "-only", "ppa")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	if !strings.Contains(out, "create") {
		t.Errorf("output %q", out)
	}
}

func TestRunScaling(t *testing.T) {
	out, errs, code := runCLI(t, "-scaling", "-runs", "1", "-only", "channel050")
	if code != 0 {
		t.Fatalf("exit %d (%s)", code, errs)
	}
	if !strings.Contains(out, "Strong scaling") {
		t.Errorf("output %q", out)
	}
}

func TestRunErrors(t *testing.T) {
	if _, _, code := runCLI(t); code == 0 {
		t.Error("no args accepted")
	}
	if _, _, code := runCLI(t, "-fig", "7"); code == 0 {
		t.Error("figure 7 accepted")
	}
	if _, _, code := runCLI(t, "-wat"); code == 0 {
		t.Error("bad flag accepted")
	}
}
