package embed

import (
	"testing"

	"mlcg/internal/gen"
	"mlcg/internal/par"
)

// TestEmbedWorkspaceReuse pins the SGD inner loop at literal zero
// steady-state allocations: after newTrainer has sized every scratch
// buffer, running epochs allocates nothing. The trainer hoists its phase
// closures into fields (tr.fa/tr.fb) precisely so the epoch loop passes
// pre-built funcs to par.For instead of constructing closure headers per
// chunk — this test is the regression net for that structure.
func TestEmbedWorkspaceReuse(t *testing.T) {
	g := gen.RGG(1200, 0, 41)
	opt := Options{Dim: 16, Negatives: 3, Seed: 9, Workers: 1}.withDefaults()
	emb := randomInit(g.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: 1})
	ws := newWorkspace()
	levelKey := par.Mix64(opt.Seed ^ 0x9e3779b97f4a7c15)
	tr := newTrainer(g, emb, ws, levelKey, opt, nil)
	tr.lr = 0.05
	tr.epochKey = par.Mix64(levelKey ^ 0xbf58476d1ce4e5b9)

	// Warm-up epoch so any lazy runtime state settles.
	tr.runEpoch()

	allocs := testing.AllocsPerRun(3, func() {
		tr.epochKey = par.Mix64(tr.epochKey + 1)
		tr.runEpoch()
	})
	if allocs != 0 {
		t.Errorf("steady-state epoch allocated %.1f times, want 0", allocs)
	}
}

// TestEmbedWorkspaceGrowsAcrossLevels covers the multilevel reuse path:
// the same workspace serves levels of different sizes, growing buffers
// monotonically and never shrinking capacity.
func TestEmbedWorkspaceGrowsAcrossLevels(t *testing.T) {
	small := gen.Grid2D(10, 10)
	large := gen.Grid2D(40, 40)
	opt := Options{Dim: 8, Negatives: 2, Seed: 3, Workers: 1}.withDefaults()
	ws := newWorkspace()

	embS := randomInit(small.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: 1})
	if _, err := trainLevel(small, embS, ws, 0, 2, 0.05, opt, nil); err != nil {
		t.Fatal(err)
	}
	capAfterSmall := cap(ws.delta)

	embL := randomInit(large.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: 1})
	if _, err := trainLevel(large, embL, ws, 1, 2, 0.05, opt, nil); err != nil {
		t.Fatal(err)
	}
	if cap(ws.delta) < capAfterSmall {
		t.Errorf("workspace delta capacity shrank: %d -> %d", capAfterSmall, cap(ws.delta))
	}

	// Back to the small level: nothing should need to grow again.
	embS2 := randomInit(small.NumV, int32(opt.Dim), opt.Seed, par.Exec{P: 1})
	capBefore := cap(ws.delta)
	if _, err := trainLevel(small, embS2, ws, 0, 2, 0.05, opt, nil); err != nil {
		t.Fatal(err)
	}
	if cap(ws.delta) != capBefore {
		t.Errorf("revisiting a smaller level reallocated: %d -> %d", capBefore, cap(ws.delta))
	}
}
