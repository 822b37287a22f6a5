package topomap

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Portfolio tests: deterministic winner selection at any worker
// count, objective-driven ranking, candidate auto-expansion with
// capability filtering, fail-fast validation, and best-so-far
// behaviour under a deadline. The worker-count tests run under
// `make race`.

// portfolioFixture builds the shared portfolio instance: the 128-task
// engine fixture plus the seven Figure-2 mappers as candidates.
func portfolioFixture(t *testing.T) (*Engine, *TaskGraph, []Solve) {
	t.Helper()
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	var cands []Solve
	for _, mp := range Mappers() {
		cands = append(cands, Solve{Mapper: mp, Seed: 3})
	}
	if len(cands) < 6 {
		t.Fatalf("fixture has %d candidates, want >= 6", len(cands))
	}
	return eng, tg, cands
}

// TestEnginePortfolioDeterministic is the tentpole acceptance: a
// >= 6-candidate portfolio returns the same winner and the same
// leaderboard order — and a byte-identical winning rankfile — at
// workers 1, 2 and 8.
func TestEnginePortfolioDeterministic(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	req := PortfolioRequest{Tasks: tg, Candidates: cands, Objective: MinimizeMetric("mc")}

	req.Workers = 1
	base, err := eng.RunPortfolio(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Leaderboard) != len(cands) {
		t.Fatalf("leaderboard has %d entries, want %d", len(base.Leaderboard), len(cands))
	}
	if base.Skipped != 0 {
		t.Fatalf("uncancelled portfolio skipped %d candidates", base.Skipped)
	}
	baseRF := rankfileBytes(t, base.Best, eng.Allocation())
	for _, workers := range []int{2, 8} {
		req.Workers = workers
		got, err := eng.RunPortfolio(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Winner != base.Winner {
			t.Fatalf("workers=%d: winner %d (%s), want %d (%s)", workers,
				got.Winner, got.Best.Mapper, base.Winner, base.Best.Mapper)
		}
		for i := range base.Leaderboard {
			b, g := base.Leaderboard[i], got.Leaderboard[i]
			if g.Index != b.Index || g.Score != b.Score || g.Skipped != b.Skipped {
				t.Fatalf("workers=%d: leaderboard rank %d diverged: %+v vs %+v", workers, i, g, b)
			}
		}
		if rf := rankfileBytes(t, got.Best, eng.Allocation()); rf != baseRF {
			t.Fatalf("workers=%d: winning rankfile bytes diverged", workers)
		}
	}

	// The winning result is byte-identical to solving the winning
	// candidate directly.
	direct, err := eng.RunSolve(context.Background(), tg, cands[base.Winner])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.NodeOf, base.Best.NodeOf) ||
		!reflect.DeepEqual(direct.GroupOf, base.Best.GroupOf) ||
		direct.Metrics != base.Best.Metrics {
		t.Fatal("portfolio winner diverged from a direct RunSolve of the same candidate")
	}
}

// TestEnginePortfolioObjectiveRanking: the leaderboard is sorted
// ascending by the declared objective, the winner minimizes it, and
// changing the objective re-ranks the same candidate set.
func TestEnginePortfolioObjectiveRanking(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	for _, metric := range []string{"mc", "wh", "mmc", "ac"} {
		res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
			Tasks: tg, Candidates: cands, Objective: MinimizeMetric(metric)})
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		for i, entry := range res.Leaderboard {
			score, err := MinimizeMetric(metric).Score(entry.Result)
			if err != nil {
				t.Fatalf("%s: %v", metric, err)
			}
			if score != entry.Score {
				t.Fatalf("%s: rank %d reports score %g, metrics say %g", metric, i, entry.Score, score)
			}
			if i > 0 && entry.Score < res.Leaderboard[i-1].Score {
				t.Fatalf("%s: leaderboard not ascending at rank %d", metric, i)
			}
		}
		if res.Leaderboard[0].Index != res.Winner || res.Leaderboard[0].Result != res.Best {
			t.Fatalf("%s: winner fields disagree with leaderboard head", metric)
		}
	}
}

// TestEnginePortfolioAutoCandidates: an empty candidate list expands
// to every registered mapper the topology can dispatch — multipath
// mappers included on a torus, excluded on a bare Topology that
// cannot enumerate minimal routes.
func TestEnginePortfolioAutoCandidates(t *testing.T) {
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	names := map[Mapper]bool{}
	for _, mp := range eng.CompatibleMappers() {
		names[mp] = true
	}
	if !names[UMCA] {
		t.Fatal("torus CompatibleMappers misses the multipath mapper UMCA")
	}
	flat, err := NewEngine(flatTopo{topo}, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range flat.CompatibleMappers() {
		if mp == UMCA {
			t.Fatal("non-multipath topology still lists UMCA as compatible")
		}
	}
	res, err := flat.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaderboard) != len(flat.CompatibleMappers()) {
		t.Fatalf("auto-expanded portfolio ran %d candidates, want %d",
			len(res.Leaderboard), len(flat.CompatibleMappers()))
	}
	for _, entry := range res.Leaderboard {
		if entry.Solve.Seed != 2 {
			t.Fatalf("auto candidate %s ran at seed %d, want the request seed 2", entry.Solve.Mapper, entry.Solve.Seed)
		}
	}
}

// TestEnginePortfolioValidation: duplicate (mapper, seed) candidates,
// unknown mappers, malformed objectives and sim-scoring objectives
// without a sim spec are all rejected before any solve runs.
func TestEnginePortfolioValidation(t *testing.T) {
	eng, tg, _ := portfolioFixture(t)
	cases := []struct {
		name string
		req  PortfolioRequest
		want string
	}{
		{"duplicate candidates",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}, {Mapper: UMC, Seed: 1}, {Mapper: UWH, Seed: 1}}},
			"duplicate"},
		{"unknown mapper",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: "NOPE", Seed: 1}}},
			"unknown mapper"},
		{"unknown objective metric",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}}, Objective: MinimizeMetric("latency")},
			"unknown objective metric"},
		{"both minimize and terms",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}},
				Objective: Objective{Minimize: "wh", Terms: []ObjectiveTerm{{Metric: "mc", Weight: 1}}}},
			"pick one"},
		{"sim objective without sim spec",
			PortfolioRequest{Tasks: tg, Candidates: []Solve{{Mapper: UWH, Seed: 1}}, Objective: MinimizeMetric("sim_seconds")},
			"sim spec"},
		{"no task graph",
			PortfolioRequest{Candidates: []Solve{{Mapper: UWH, Seed: 1}}},
			"task graph"},
	}
	for _, tc := range cases {
		_, err := eng.RunPortfolio(context.Background(), tc.req)
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// A refine-only variation of the same (mapper, seed) is also a
	// duplicate: candidates must differ in mapper or seed, so every
	// leaderboard line stays identifiable by that pair.
	_, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg,
		Candidates: []Solve{{Mapper: DEF, Seed: 1}, {Mapper: DEF, Seed: 1, Refine: true}}})
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("refine-only duplicate accepted: %v", err)
	}
}

// TestEnginePortfolioSimObjective: with a request-level SimSpec, a
// sim_seconds objective runs the simulator for every candidate and
// ranks by simulated time.
func TestEnginePortfolioSimObjective(t *testing.T) {
	eng, tg, cands := portfolioFixture(t)
	res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
		Tasks:      tg,
		Candidates: cands,
		Objective:  MinimizeMetric(SimSecondsMetric),
		Sim:        &SimSpec{BytesPerUnit: 4096, Params: SimParams{Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range res.Leaderboard {
		if entry.Result.SimSeconds <= 0 {
			t.Fatalf("%s: candidate solved without simulation", entry.Solve.Mapper)
		}
		if entry.Score != entry.Result.SimSeconds {
			t.Fatalf("%s: score %g != sim seconds %g", entry.Solve.Mapper, entry.Score, entry.Result.SimSeconds)
		}
	}
}

// registerSlowPoll lazily registers a mapper that blocks until the
// solve's context dies (polling cooperatively like a real mapper),
// then reports the cancellation; with a live context it places
// identity after a bounded wait. The deadline test uses it as the
// candidate that never beats the clock. Registration is lazy — not
// init — so the registry-sweeping tests never pick it up by accident.
var slowPollOnce sync.Once

func registerSlowPoll(t *testing.T) {
	t.Helper()
	slowPollOnce.Do(func() {
		err := RegisterMapper(NewMapper("TEST-SLOWPOLL", MapperCaps{},
			func(in MapperInput) ([]int32, error) {
				for i := 0; i < 2000; i++ { // 10s bound: never wins a deadline race
					if in.Exec != nil && in.Exec.Par.Cancelled() {
						return nil, context.Canceled
					}
					time.Sleep(5 * time.Millisecond)
				}
				nodeOf := make([]int32, in.Coarse.N())
				copy(nodeOf, in.Alloc.Nodes)
				return nodeOf, nil
			}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestEnginePortfolioDeadlineBestSoFar: when the deadline cuts off a
// candidate, the portfolio returns the best of what completed and
// marks the loser Skipped instead of failing — and a deadline that
// beats every candidate surfaces the context error.
func TestEnginePortfolioDeadlineBestSoFar(t *testing.T) {
	registerSlowPoll(t)
	tg, topo, a := engineFixture(t, 128)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := eng.RunPortfolio(ctx, PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1}, {Mapper: "TEST-SLOWPOLL", Seed: 1}},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 0 || res.Best.Mapper != UWH {
		t.Fatalf("winner = candidate %d (%s), want 0 (UWH)", res.Winner, res.Best.Mapper)
	}
	if res.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1", res.Skipped)
	}
	last := res.Leaderboard[len(res.Leaderboard)-1]
	if !last.Skipped || last.Index != 1 || last.Result != nil {
		t.Fatalf("slow candidate's entry malformed: %+v", last)
	}

	// Deadline beating every candidate: the context error surfaces.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := eng.RunPortfolio(dead, PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1}},
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// sharedGroupingCandidates is one seed's worth of candidates that
// exercise every stage that touches the group vector after grouping:
// load balance (HET, and every non-DEF solve on the heterogeneous
// fixture), fine-level refinement, the extra WH pass and tracing.
// DEF block-groups and so never shares.
func sharedGroupingCandidates(seed int64) []Solve {
	return []Solve{
		{Mapper: DEF, Seed: seed},
		{Mapper: HET, Seed: seed, Balance: true},
		{Mapper: UWH, Seed: seed, FineRefine: true},
		{Mapper: UMC, Seed: seed, Refine: true},
		{Mapper: UG, Seed: seed, Trace: true},
		{Mapper: TMAP, Seed: seed},
		{Mapper: UWH, Seed: seed + 1}, // alone at its seed: groups itself
	}
}

// TestEnginePortfolioSharedGrouping: every leaderboard entry of a
// portfolio whose candidates share one grouping is byte-identical to a
// direct RunSolve of the same candidate, at workers 1, 2 and 8; no two
// results share a backing array; and the traces say who shared.
func TestEnginePortfolioSharedGrouping(t *testing.T) {
	tg, topo, a := heteroFixture(t, 16, 16)
	eng, err := NewEngine(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	cands := sharedGroupingCandidates(5)
	direct := make([]*MapResult, len(cands))
	for i, c := range cands {
		if direct[i], err = eng.RunSolve(context.Background(), tg, c); err != nil {
			t.Fatalf("direct %s: %v", c.Mapper, err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
			Tasks: tg, Candidates: cands, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		byIndex := make([]*MapResult, len(cands))
		for _, entry := range res.Leaderboard {
			if entry.Skipped {
				t.Fatalf("workers=%d: candidate %d skipped", workers, entry.Index)
			}
			byIndex[entry.Index] = entry.Result
		}
		for i, got := range byIndex {
			want := direct[i]
			if !reflect.DeepEqual(got.GroupOf, want.GroupOf) || !reflect.DeepEqual(got.NodeOf, want.NodeOf) {
				t.Fatalf("workers=%d: candidate %d (%s) placement diverged from a direct RunSolve", workers, i, cands[i].Mapper)
			}
			if got.Metrics != want.Metrics || got.FineWHGain != want.FineWHGain || got.FineVolGain != want.FineVolGain {
				t.Fatalf("workers=%d: candidate %d (%s) metrics diverged:\n %+v\n vs %+v", workers, i, cands[i].Mapper, got.Metrics, want.Metrics)
			}
			if rankfileBytes(t, got, a) != rankfileBytes(t, want, a) {
				t.Fatalf("workers=%d: candidate %d (%s) rankfile diverged", workers, i, cands[i].Mapper)
			}
		}

		// Private vectors: writing through one result leaves every
		// other untouched.
		snap := make([][]int32, len(byIndex))
		vw := make([][]int64, len(byIndex))
		for i, r := range byIndex {
			snap[i] = append([]int32(nil), r.GroupOf...)
			vw[i] = append([]int64(nil), r.Coarse.VW...)
		}
		for i, r := range byIndex {
			r.GroupOf[0] = -1
			r.Coarse.VW[0] = -1
			for j, o := range byIndex {
				if j != i && (!reflect.DeepEqual(o.GroupOf, snap[j]) || !reflect.DeepEqual(o.Coarse.VW, vw[j])) {
					t.Fatalf("workers=%d: writing result %d changed result %d", workers, i, j)
				}
			}
			r.GroupOf[0], r.Coarse.VW[0] = snap[i][0], vw[i][0]
		}

		// Trace: the traced sharing candidate marks its group span
		// shared; as the only traced sharer that is not the lead it
		// carries no bisection counts of its own.
		group := byIndex[4].Trace.Stages()[0]
		if group.Name != "group" || group.Counters["group_shared"] != 1 || group.Counters["bisections"] != 0 {
			t.Fatalf("workers=%d: traced sharing candidate's group span = %+v", workers, group)
		}
	}
}

// TestEnginePortfolioSharedGroupingTrace: the lowest-index sharing
// candidate's group span carries the shared grouping's wall time,
// worker count and bisection counters; every sharing candidate's span
// carries group_shared=1; DEF and a candidate alone at its seed carry
// none; and the traced portfolio is byte-identical to the untraced one.
func TestEnginePortfolioSharedGroupingTrace(t *testing.T) {
	eng, tg, _ := portfolioFixture(t)
	cands := []Solve{
		{Mapper: DEF, Seed: 3},
		{Mapper: UWH, Seed: 3},
		{Mapper: UMC, Seed: 3},
		{Mapper: UG, Seed: 4},
	}
	plain, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Candidates: cands, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	traced := append([]Solve(nil), cands...)
	for i := range traced {
		traced[i].Trace = true
	}
	res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{Tasks: tg, Candidates: traced, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Leaderboard {
		g, p := res.Leaderboard[i], plain.Leaderboard[i]
		if g.Index != p.Index || g.Score != p.Score ||
			!reflect.DeepEqual(g.Result.GroupOf, p.Result.GroupOf) || !reflect.DeepEqual(g.Result.NodeOf, p.Result.NodeOf) {
			t.Fatalf("rank %d: traced portfolio diverged from untraced", i)
		}
	}
	group := map[int]trace.Stage{}
	for _, entry := range res.Leaderboard {
		st := entry.Result.Trace.Stages()[0]
		if st.Name != "group" {
			t.Fatalf("candidate %d: first stage %q", entry.Index, st.Name)
		}
		group[entry.Index] = st
	}
	if lead := group[1]; lead.Counters["group_shared"] != 1 || lead.Counters["bisections"] == 0 || lead.Workers != 2 || lead.DurMS <= 0 {
		t.Fatalf("lead sharing candidate's group span = %+v", lead)
	}
	if other := group[2]; other.Counters["group_shared"] != 1 || other.Counters["bisections"] != 0 {
		t.Fatalf("second sharing candidate's group span = %+v", other)
	}
	for _, i := range []int{0, 3} {
		if group[i].Counters["group_shared"] != 0 {
			t.Fatalf("non-sharing candidate %d marked shared: %+v", i, group[i])
		}
	}
	if group[3].Counters["bisections"] == 0 {
		t.Fatalf("candidate alone at its seed did not group itself: %+v", group[3])
	}
}

// withGroupTasks swaps the grouping function for the duration of a
// test.
func withGroupTasks(t *testing.T, f func(*TaskGraph, []int64, int64, *parallel.Group, *arena.Arena, *trace.Trace) ([]int32, error)) {
	t.Helper()
	prev := groupTasks
	groupTasks = f
	t.Cleanup(func() { groupTasks = prev })
}

// TestPortfolioSharedGroupingTimeout: a candidate's TimeoutMS still
// pays for the shared grouping — with a grouping slower than its 1 ms
// budget it is Skipped, while the unbudgeted candidate sharing the
// same grouping completes.
func TestPortfolioSharedGroupingTimeout(t *testing.T) {
	eng, tg, _ := portfolioFixture(t)
	real := groupTasks
	withGroupTasks(t, func(tg *TaskGraph, caps []int64, seed int64, par *parallel.Group, ar *arena.Arena, tr *trace.Trace) ([]int32, error) {
		time.Sleep(5 * time.Millisecond)
		return real(tg, caps, seed, par, ar, tr)
	})
	res, err := eng.RunPortfolio(context.Background(), PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1, TimeoutMS: 1}, {Mapper: UMC, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Winner != 1 {
		t.Fatalf("skipped=%d winner=%d, want 1 skipped and candidate 1 winning", res.Skipped, res.Winner)
	}
	if last := res.Leaderboard[1]; last.Index != 0 || !last.Skipped {
		t.Fatalf("over-budget sharing candidate not Skipped: %+v", last)
	}
}

// TestPortfolioSharedGroupingCancelAndFail: cancelling the portfolio
// during the shared grouping skips every sharing candidate and, with
// nothing completed, surfaces ctx.Err; a grouping failure that is not
// a cancellation fails the portfolio naming the lowest-index sharing
// candidate.
func TestPortfolioSharedGroupingCancelAndFail(t *testing.T) {
	eng, tg, _ := portfolioFixture(t)
	real := groupTasks
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	withGroupTasks(t, func(tg *TaskGraph, caps []int64, seed int64, par *parallel.Group, ar *arena.Arena, tr *trace.Trace) ([]int32, error) {
		calls++
		cancel()
		return real(tg, caps, seed, par, ar, tr)
	})
	_, err := eng.RunPortfolio(ctx, PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: UWH, Seed: 1}, {Mapper: UMC, Seed: 1}, {Mapper: UML, Seed: 1}},
		Workers:    2,
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("grouping ran %d times, want once for the shared seed", calls)
	}

	boom := errors.New("grouping exploded")
	withGroupTasks(t, func(*TaskGraph, []int64, int64, *parallel.Group, *arena.Arena, *trace.Trace) ([]int32, error) {
		return nil, boom
	})
	_, err = eng.RunPortfolio(context.Background(), PortfolioRequest{
		Tasks:      tg,
		Candidates: []Solve{{Mapper: DEF, Seed: 1}, {Mapper: UWH, Seed: 1}, {Mapper: UMC, Seed: 1}},
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "candidate 1 (UWH)") {
		t.Fatalf("err = %v, want the grouping failure on candidate 1 (UWH)", err)
	}
}
