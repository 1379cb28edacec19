package obs_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mlcg/internal/cluster"
	"mlcg/internal/coarsen"
	"mlcg/internal/gen"
	"mlcg/internal/obs"
	"mlcg/internal/partition"
)

// spanDump lists every span path under s with its subtree counters.
func spanDump(s *obs.Span, path string, out *[]string) {
	c := s.Counters()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var kv []string
	for _, k := range keys {
		kv = append(kv, fmt.Sprintf("%s=%d", k, c[k]))
	}
	*out = append(*out, path+" {"+strings.Join(kv, " ")+"}")
	for _, ch := range s.Children() {
		spanDump(ch, path+"/"+ch.Name(), out)
	}
}

// TestExplicitAndToolTracesAgree runs each entry route twice at p = 1:
// traced through an explicit span (a context for RunCtx, the Span option
// for KWayFM and Louvain) and under the tool trace with no span given.
// Both must build the same span paths with the same subtree counters.
func TestExplicitAndToolTracesAgree(t *testing.T) {
	g := gen.RGG(3000, 0, 11)
	for _, tc := range []struct {
		name string
		run  func(span *obs.Span) error
	}{
		{"RunCtx", func(span *obs.Span) error {
			c := coarsen.Coarsener{Mapper: coarsen.HEC{}, Builder: coarsen.BuildSort{}, Seed: 5, Workers: 1}
			_, err := c.RunCtx(obs.ContextWithSpan(context.Background(), span), g)
			return err
		}},
		{"KWayFM", func(span *obs.Span) error {
			_, err := partition.KWayFM(g, 4, partition.KWayOptions{Seed: 3, Workers: 1, Span: span})
			return err
		}},
		{"Louvain", func(span *obs.Span) error {
			_, err := cluster.Louvain(g, cluster.Options{Seed: 3, Workers: 1, Span: span})
			return err
		}},
	} {
		explicit := obs.NewTrace("run")
		if err := tc.run(explicit.Root); err != nil {
			t.Fatal(err)
		}
		explicit.Stop()

		tool := startTrace(t, "run")
		if err := tc.run(nil); err != nil {
			t.Fatal(err)
		}
		tool.Stop()

		var want, got []string
		spanDump(explicit.Root, "run", &want)
		spanDump(tool.Root, "run", &got)
		if len(want) < 2 || len(want[0]) <= len("run {}") {
			t.Fatalf("%s: explicit trace recorded nothing: %v", tc.name, want)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: tool trace\n%s\nwant the explicit trace's\n%s", tc.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
