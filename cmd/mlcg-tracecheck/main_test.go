package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcg/internal/obs"
)

func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	tr := obs.StartTrace("run")
	if tr == nil {
		t.Fatal("could not start trace")
	}
	lvl := obs.StartKernel("level 0")
	obs.StartKernel("map:hec").Done()
	build := obs.StartKernel("build:sort")
	obs.StartKernel("dedup:sort").Done()
	build.Done()
	lvl.Done()
	tr.Stop()
	path := filepath.Join(dir, "trace.json")
	if err := tr.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckValidTrace(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-coarsen", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d (%s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("unexpected output %q", out.String())
	}
}

func TestCheckRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents":[{"name":"x","ph":"B","ts":0,"dur":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{bad}, &out, &errb); code == 0 {
		t.Error("bad phase accepted")
	}
	if code := run([]string{filepath.Join(dir, "missing.json")}, &out, &errb); code == 0 {
		t.Error("missing file accepted")
	}
	if code := run([]string{}, &out, &errb); code == 0 {
		t.Error("no arguments accepted")
	}
	// A structurally valid but non-coarsening trace fails only under -coarsen.
	flat := filepath.Join(dir, "flat.json")
	if err := os.WriteFile(flat, []byte(`{"traceEvents":[{"name":"run","ph":"X","ts":0,"dur":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{flat}, &out, &errb); code != 0 {
		t.Errorf("flat trace rejected without -coarsen: %s", errb.String())
	}
	if code := run([]string{"-coarsen", flat}, &out, &errb); code == 0 {
		t.Error("flat trace accepted with -coarsen")
	}
}

func TestCheckPromMode(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.prom")
	doc := "# HELP mlcg_x h\n# TYPE mlcg_x gauge\nmlcg_x 1\n"
	if err := os.WriteFile(good, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-prom", good}, &out, &errb); code != 0 {
		t.Fatalf("valid exposition rejected: exit %d (%s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "1 families, 1 samples") {
		t.Errorf("unexpected output %q", out.String())
	}

	bad := filepath.Join(dir, "bad.prom")
	if err := os.WriteFile(bad, []byte("mlcg_x 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-prom", bad}, &out, &errb); code == 0 {
		t.Error("exposition without HELP/TYPE accepted")
	}
	if code := run([]string{"-prom", "-coarsen", good}, &out, &errb); code != 2 {
		t.Error("-prom -coarsen combination accepted")
	}
}
