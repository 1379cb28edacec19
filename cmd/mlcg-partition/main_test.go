package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mlcg/internal/graph"
	"mlcg/internal/hierfmt"
)

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunFMBisection(t *testing.T) {
	out, errs, code := runCLI(t, "-gen", "trimesh", "-method", "fm", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, want := range []string{"edge cut:", "side weights:", "levels="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(out, "imbalance 0") {
		t.Errorf("mesh bisection should balance perfectly:\n%s", out)
	}
}

func TestRunSpectral(t *testing.T) {
	out, errs, code := runCLI(t, "-gen", "grid2d", "-method", "spectral")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "method=spectral") {
		t.Errorf("output %q", out)
	}
}

// TestRunSpectralMetrics: -metrics shows where spectral time goes — the
// fiedler spans and their exact work counters.
func TestRunSpectralMetrics(t *testing.T) {
	out, errs, code := runCLI(t, "-gen", "grid2d", "-method", "spectral", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, name := range []string{"fiedler_iters", "spmv_nnz"} {
		m := regexp.MustCompile(`(?m)^` + name + ` +(\d+)$`).FindStringSubmatch(out)
		if m == nil || m[1] == "0" {
			t.Errorf("counter %s missing or zero:\n%s", name, out)
		}
	}
	solves := strings.Count(out, "  fiedler ")
	if solves == 0 {
		t.Errorf("no fiedler span in the dump:\n%s", out)
	}
	// At the default tolerance (1e-10) and MaxIter (1000) no level of the
	// grid meets the tolerance, so every solve counts as capped.
	m := regexp.MustCompile(`(?m)^fiedler_capped +(\d+)$`).FindStringSubmatch(out)
	if m == nil || m[1] != strconv.Itoa(solves) {
		t.Errorf("fiedler_capped missing or not %d (one per solve):\n%s", solves, out)
	}
	checkLevelSpans(t, out, "spectral")
}

// checkLevelSpans requires one "<name>:level i" span per graph of the
// hierarchy, levels+1 in all, in the -metrics dump out.
func checkLevelSpans(t *testing.T, out, name string) {
	t.Helper()
	m := regexp.MustCompile(`levels=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no levels= in the output:\n%s", out)
	}
	levels, _ := strconv.Atoi(m[1])
	if got := strings.Count(out, "  "+name+":level "); got != levels+1 {
		t.Errorf("%d %s:level spans for %d levels, want %d:\n%s", got, name, levels, levels+1, out)
	}
}

// TestRunFMMetrics: -metrics shows where FM time goes — one fm span per
// refinement and the exact pass, move and rollback counters.
func TestRunFMMetrics(t *testing.T) {
	out, errs, code := runCLI(t, "-gen", "trimesh", "-method", "fm", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, name := range []string{"fm_passes", "fm_moves", "fm_rollbacks"} {
		m := regexp.MustCompile(`(?m)^` + name + ` +(\d+)$`).FindStringSubmatch(out)
		if m == nil || m[1] == "0" {
			t.Errorf("counter %s missing or zero:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "  fm ") {
		t.Errorf("no fm span in the dump:\n%s", out)
	}
	checkLevelSpans(t, out, "fm")
}

func TestRunKWay(t *testing.T) {
	out, errs, code := runCLI(t, "-gen", "grid2d", "-k", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "k=4 edge cut:") {
		t.Errorf("output %q", out)
	}
}

func TestRunWritesParts(t *testing.T) {
	dir := t.TempDir()
	parts := filepath.Join(dir, "parts.txt")
	_, errs, code := runCLI(t, "-gen", "grid2d", "-out", parts)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	data, err := os.ReadFile(parts)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(data))
	if len(lines) != 90000 {
		t.Errorf("part vector has %d entries, want 90000", len(lines))
	}
}

// TestRunRejectsWeightOverflow feeds both bisection methods a graph whose
// edge weights fit in int64 one by one but whose total does not ({0,1} and
// {2,3} of weight 2^62, the four cross edges 2^61, a unit path
// 3-4-...-79). Ingest must reject it: coarsening would otherwise sum a
// coarse weight past int64, giving a negative spectral cut and a negative
// FM bucket index.
func TestRunRejectsWeightOverflow(t *testing.T) {
	var b strings.Builder
	b.WriteString("80 82\n0 1 4611686018427387904\n2 3 4611686018427387904\n")
	for _, e := range []string{"0 2", "0 3", "1 2", "1 3"} {
		b.WriteString(e + " 2305843009213693952\n")
	}
	for i := 3; i < 79; i++ {
		fmt.Fprintf(&b, "%d %d 1\n", i, i+1)
	}
	in := filepath.Join(t.TempDir(), "overflow.txt")
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"fm", "spectral"} {
		out, errs, code := runCLI(t, "-in", in, "-method", method)
		if code == 0 {
			t.Errorf("-method %s: accepted the graph:\n%s", method, out)
		}
		if !strings.Contains(errs, "overflows int64") {
			t.Errorf("-method %s: stderr %q does not name the overflow", method, errs)
		}
	}
}

// TestRunHugeEdgeWeight: a valid 40-vertex path whose edge {20, 21}
// weighs 2^40 bisects with -method fm and partitions with -k 4. FM's gain
// store once took its size from the weighted degree and asked for 2^42
// bucket heads, which killed the process.
func TestRunHugeEdgeWeight(t *testing.T) {
	var b strings.Builder
	b.WriteString("40 39\n")
	for i := 0; i < 39; i++ {
		w := int64(1)
		if i == 20 {
			w = 1 << 40
		}
		fmt.Fprintf(&b, "%d %d %d\n", i, i+1, w)
	}
	in := filepath.Join(t.TempDir(), "heavy.txt")
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-method", "fm"}, {"-k", "4"}} {
		out, errs, code := runCLI(t, append([]string{"-in", in}, args...)...)
		if code != 0 || !strings.Contains(out, "edge cut:") {
			t.Errorf("%v: exit %d, stderr %q:\n%s", args, code, errs, out)
		}
	}
}

// TestRunRejectsBadVertexWeights: an 80-vertex unit path with a vertex
// weight of -1000, all-zero weights, or two weights of 2^62 (whose total
// overflows int64) is refused in the binary and mlcg formats. Unchecked,
// these bisect to side weights of -921 / 0, 0 / 0 and a wrapped sum.
func TestRunRejectsBadVertexWeights(t *testing.T) {
	ones := func() []int64 {
		vw := make([]int64, 80)
		for i := range vw {
			vw[i] = 1
		}
		return vw
	}
	neg, huge := ones(), ones()
	neg[40] = -1000
	huge[10], huge[70] = 1<<62, 1<<62
	edges := make([]graph.Edge, 79)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1), W: 1}
	}
	dir := t.TempDir()
	for name, vw := range map[string][]int64{"negative": neg, "zero": make([]int64, 80), "overflow": huge} {
		g := graph.MustFromEdges(80, edges)
		g.VWgt = vw
		var bin, mlcg bytes.Buffer
		if err := g.WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		if err := hierfmt.SaveGraph(&mlcg, g, hierfmt.SaveOptions{}); err != nil {
			t.Fatal(err)
		}
		for format, body := range map[string][]byte{"binary": bin.Bytes(), "mlcg": mlcg.Bytes()} {
			in := filepath.Join(dir, name+"."+format)
			if err := os.WriteFile(in, body, 0o644); err != nil {
				t.Fatal(err)
			}
			out, errs, code := runCLI(t, "-in", in, "-format", format)
			if code == 0 {
				t.Errorf("%s/%s: accepted the graph:\n%s", name, format, out)
			}
			if !strings.Contains(errs, "weight") || !strings.Contains(errs, "vertex") {
				t.Errorf("%s/%s: stderr %q does not name the vertex weight", name, format, errs)
			}
		}
	}
}

// TestRunRejectsAsymmetricMlcg: a 200-vertex path whose vertex 5 lists
// itself in place of vertex 4 is refused in the mlcg format as it is in
// the binary one. Unchecked, FM bisects it with a reported cut of 1 at
// some seeds and indexes its gain buckets at -1 at others.
func TestRunRejectsAsymmetricMlcg(t *testing.T) {
	edges := make([]graph.Edge, 199)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(i), V: int32(i + 1), W: 1}
	}
	g := graph.MustFromEdges(200, edges)
	adj, _ := g.Neighbors(5)
	for k, v := range adj {
		if v == 4 {
			adj[k] = 5
		}
	}
	var bin, mlcg bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := hierfmt.SaveGraph(&mlcg, g, hierfmt.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for format, body := range map[string][]byte{"binary": bin.Bytes(), "mlcg": mlcg.Bytes()} {
		in := filepath.Join(dir, "selfloop."+format)
		if err := os.WriteFile(in, body, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, seed := range []string{"1", "6"} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s seed %s: panic: %v", format, seed, r)
					}
				}()
				out, errs, code := runCLI(t, "-in", in, "-format", format, "-method", "fm", "-seed", seed)
				if code != 1 || !strings.Contains(errs, "edge {4,5} missing reverse") {
					t.Errorf("%s seed %s: exit %d, stderr %q, want exit 1 naming the missing reverse edge:\n%s",
						format, seed, code, errs, out)
				}
			}()
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // no input
		{"-gen", "grid2d", "-method", "xx"}, // unknown method
		{"-gen", "grid2d", "-k", "3", "-method", "xx"},       // unknown k-way method
		{"-gen", "grid2d", "-k", "3", "-method", "spectral"}, // removed spectral k-way
		{"-gen", "grid2d", "-k", "1"},                        // k below 2
		{"-gen", "grid2d", "-k", "0"},
		{"-gen", "grid2d", "-k", "-5"},
		{"-gen", "grid2d", "-k", "90001"},               // k above n = 90,000
		{"-gen", "grid2d", "-k", "4", "-pairwise", "1"}, // removed flag
		{"-gen", "trimesh", "-order", "nd"},             // removed flag
		{"-gen", "grid2d", "-mapper", "xx"},             // unknown mapper
		{"-gen", "grid2d", "-construct", "xx"},          // unknown builder
		{"-gen", "grid2d", "-construct", "probe"},       // removed probe mode
		{"-gen", "grid2d", "-builder", "sort"},          // removed flag
		{"-gen", "grid2d", "-parrefine"},                // removed flag
		{"-in", "/nonexistent"},                         // missing file
		{"-zzz"},                                        // bad flag
	}
	for _, args := range cases {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
	}
}
