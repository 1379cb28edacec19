package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlcg/internal/embed"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// smallArgs are the budget flags shared by the tests: dim 16 and 8
// coarsest epochs keep each run around a second on the stock rgg
// generator instance.
func smallArgs(extra ...string) []string {
	args := []string{"-gen", "rgg", "-dim", "16", "-epochs", "8", "-negatives", "3"}
	return append(args, extra...)
}

func TestRunTrainAndEval(t *testing.T) {
	out, errs, code := runCLI(t, smallArgs("-eval")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"input: n=", "eval split:", "hierarchy:", "trained:", "link-prediction AUC:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
	// The AUC on an easy geometric instance must clear the broken-trainer
	// floor even at this small budget.
	auc := parseAUC(t, out)
	if auc < 0.85 {
		t.Errorf("AUC %.4f suspiciously low for rgg", auc)
	}
}

func TestRunFlatBaseline(t *testing.T) {
	// Override to the minimum budget: -flat trains TotalEpochs on the full
	// input graph, which is the expensive path by design.
	out, errs, code := runCLI(t, smallArgs("-flat", "-eval", "-epochs", "2")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "flat:") || !strings.Contains(out, "link-prediction AUC:") {
		t.Errorf("flat run output unexpected:\n%s", out)
	}
}

func TestRunSaveLoadEval(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e"+embed.FileExt)
	_, errs, code := runCLI(t, smallArgs("-eval", "-out", path)...)
	if code != 0 {
		t.Fatalf("train exit %d: %s", code, errs)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	// Re-evaluating the saved embedding (same -seed → same split) must
	// reproduce the same AUC without retraining.
	out1, errs, code := runCLI(t, smallArgs("-eval", "-load", path)...)
	if code != 0 {
		t.Fatalf("load exit %d: %s", code, errs)
	}
	if !strings.Contains(out1, "loaded ") {
		t.Errorf("load output missing loaded line:\n%s", out1)
	}
	out2, _, code := runCLI(t, smallArgs("-eval", "-load", path)...)
	if code != 0 {
		t.Fatal("second load failed")
	}
	if parseAUC(t, out1) != parseAUC(t, out2) {
		t.Error("same sidecar + seed gave different AUC")
	}
}

func TestRunLoadWrongGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "e"+embed.FileExt)
	if _, errs, code := runCLI(t, smallArgs("-out", path)...); code != 0 {
		t.Fatalf("train exit %d: %s", code, errs)
	}
	// A grid has a different vertex count; the row check must reject it.
	_, errs, code := runCLI(t, "-gen", "grid2d", "-load", path)
	if code == 0 {
		t.Fatal("mismatched embedding accepted")
	}
	if !strings.Contains(errs, "rows") {
		t.Errorf("error does not mention the row mismatch: %s", errs)
	}
}

// TestSeedRegression pins the -seed contract end to end: identical seeds
// write byte-identical sidecars (generation, split, coarsening, and
// training all re-derive from the root), different seeds differ.
func TestSeedRegression(t *testing.T) {
	dir := t.TempDir()
	save := func(name, seed string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		_, errs, code := runCLI(t, smallArgs("-seed", seed, "-out", path)...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errs)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := save("a"+embed.FileExt, "5")
	b := save("b"+embed.FileExt, "5")
	if !bytes.Equal(a, b) {
		t.Error("same -seed produced different embedding sidecars")
	}
	c := save("c"+embed.FileExt, "6")
	if bytes.Equal(a, c) {
		t.Error("different -seed produced identical embedding sidecars")
	}
}

func TestRunBadFlags(t *testing.T) {
	if _, _, code := runCLI(t); code == 0 {
		t.Error("no input accepted")
	}
	if _, _, code := runCLI(t, "-gen", "nope"); code == 0 {
		t.Error("unknown generator accepted")
	}
	if _, _, code := runCLI(t, "-gen", "rgg", "-mapper", "nope"); code == 0 {
		t.Error("unknown mapper accepted")
	}
	if _, _, code := runCLI(t, "-gen", "rgg", "-builder", "sort"); code == 0 {
		t.Error("removed -builder flag accepted")
	}
	if _, _, code := runCLI(t, "-gen", "rgg", "-load", "/nonexistent/e.mlcgemb"); code == 0 {
		t.Error("missing sidecar accepted")
	}
}

func parseAUC(t *testing.T, out string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "link-prediction AUC: "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing AUC from %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no AUC line in output:\n%s", out)
	return 0
}
