package topomap

import (
	"context"
	"strings"
	"testing"
)

// Solve-stage tracing tests: span presence and order for a full solve
// and a warm remap, and the conservation law — tracing never changes
// the mapping, at any worker count (the determinism case runs under
// `make race` via its Solve/Remap name match).

// stageNames projects a result's trace onto its span-name sequence.
func stageNames(t *testing.T, res *MapResult) []string {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("traced solve returned a nil Trace")
	}
	stages := res.Trace.Stages()
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return names
}

// TestSolveTraceStages: a traced full solve records every pipeline
// stage it ran, in pipeline order, with durations and the counters the
// stages promise; an untraced solve carries no trace at all.
func TestSolveTraceStages(t *testing.T) {
	tg := ringTaskGraph(96, 4)
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := eng.RunSolve(context.Background(), tg, Solve{Mapper: UWH, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatalf("untraced solve carries a trace with %d stages", len(plain.Trace.Stages()))
	}

	res, err := eng.RunSolve(context.Background(), tg,
		Solve{Mapper: UWH, Seed: 3, Refine: true, FineRefine: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"group", "coarsen", "map", "refine_wh", "refine_fine", "metrics"}
	got := stageNames(t, res)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stage order %v, want %v", got, want)
	}

	stages := res.Trace.Stages()
	for _, st := range stages {
		if st.DurMS < 0 {
			t.Fatalf("stage %s has negative duration %v", st.Name, st.DurMS)
		}
	}
	byName := map[string]map[string]int64{}
	for _, st := range stages {
		byName[st.Name] = st.Counters
	}
	if byName["group"]["groups"] != int64(a.NumNodes()) {
		t.Fatalf("group stage counted %d groups, want %d", byName["group"]["groups"], a.NumNodes())
	}
	if byName["group"]["bisections"] < 1 {
		t.Fatalf("group stage recorded no bisections: %v", byName["group"])
	}
	// 96 tasks is already at the partitioner's coarsening floor, so
	// the levels counter may be zero, but it is reported.
	if _, ok := byName["group"]["coarsen_levels"]; !ok || byName["group"]["fm_moves"] < 1 {
		t.Fatalf("group stage work counters: %v", byName["group"])
	}
	if byName["coarsen"]["coarse_vertices"] != int64(a.NumNodes()) {
		t.Fatalf("coarsen stage counted %d vertices, want %d", byName["coarsen"]["coarse_vertices"], a.NumNodes())
	}
	// UWH runs greedy + WH refinement inside the map stage, so its
	// counters land there; the explicit refine_wh pass owns its own.
	if byName["map"]["wh_passes"] < 1 {
		t.Fatalf("map stage recorded no WH passes: %v", byName["map"])
	}
	if res.Trace.TotalMS() <= 0 {
		t.Fatalf("TotalMS = %v, want > 0", res.Trace.TotalMS())
	}
	// The trace must be pure observation: same placement either way.
	if strings.Join(rankfileOf(t, eng, plain), "") != strings.Join(rankfileOf(t, eng, res), "") {
		t.Fatal("traced and untraced solves placed differently")
	}
}

// TestRemapTraceStages: a traced warm remap's timeline starts with the
// route-cache patch (with its pair-reuse counters) and continues
// through the warm pipeline's stages in order.
func TestRemapTraceStages(t *testing.T) {
	eng, tg, prev := remapFixture(t)
	dead := prev.NodeOf[0]
	spare := findSpareNode(t, eng)
	delta := AllocationDelta{Remove: []int32{dead}, Add: []NodeCapacity{{Node: spare, Procs: 16}}}
	res, err := eng.RunRemap(context.Background(), tg, prev, delta, RemapSpec{
		Solve: Solve{Seed: 3, Trace: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Warm {
		t.Skip("fence fell back to a cold solve; warm timeline not exercised")
	}
	got := stageNames(t, res.Result)
	want := []string{"route_patch", "patch_placement", "coarsen", "refine_wh", "metrics"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("warm remap stage order %v, want %v", got, want)
	}
	stages := res.Result.Trace.Stages()
	patch := stages[0].Counters
	if patch["pairs_total"] == 0 || patch["pairs_reused"] == 0 {
		t.Fatalf("route_patch counters %v, want nonzero pairs_reused/pairs_total", patch)
	}
	if patch["pairs_reused"] != int64(res.PairsReused) || patch["pairs_total"] != int64(res.PairsTotal) {
		t.Fatalf("route_patch counters %v disagree with result (%d/%d)", patch, res.PairsReused, res.PairsTotal)
	}
	if mig := stages[1].Counters["migrated_tasks"]; mig != int64(res.MigratedTasks) {
		t.Fatalf("patch_placement migrated_tasks = %d, result says %d", mig, res.MigratedTasks)
	}
}

// rankfileOf renders a result's rankfile — the byte-level identity the
// determinism tests compare.
func rankfileOf(t *testing.T, eng *Engine, res *MapResult) []string {
	t.Helper()
	var sb strings.Builder
	if err := WriteRankOrder(&sb, res.Placement(), eng.Allocation()); err != nil {
		t.Fatal(err)
	}
	return []string{sb.String()}
}

// findSpareNode returns a placement-eligible node outside the engine's
// allocation.
func findSpareNode(t *testing.T, eng *Engine) int32 {
	t.Helper()
	in := map[int32]bool{}
	for _, n := range eng.Allocation().Nodes {
		in[n] = true
	}
	for n := int32(0); ; n++ {
		if !in[n] {
			return n
		}
	}
}

// TestSolveTraceDeterminism: for workers 1, 2 and 8, traced and
// untraced solves of the same spec produce byte-identical rankfiles —
// tracing observes the pipeline, it never steers it. Runs under
// `make race`, so the trace's internal locking is exercised against
// the parallel counter writers.
func TestSolveTraceDeterminism(t *testing.T) {
	tg := ringTaskGraph(96, 4)
	topo := NewHopperTorus(6, 6, 6)
	a, err := SparseAllocation(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	var ref string
	for _, workers := range []int{1, 2, 8} {
		for _, traced := range []bool{false, true} {
			res, err := eng.RunSolve(context.Background(), tg,
				Solve{Mapper: UWH, Seed: 3, Refine: true, Workers: workers, Trace: traced})
			if err != nil {
				t.Fatal(err)
			}
			rf := rankfileOf(t, eng, res)[0]
			if ref == "" {
				ref = rf
				continue
			}
			if rf != ref {
				t.Fatalf("workers=%d traced=%v diverged from the workers=1 untraced rankfile", workers, traced)
			}
		}
	}
}
