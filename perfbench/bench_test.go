package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	topomap "repro"
	"repro/internal/service"
)

func serviceTorus(dims ...int) service.TopologySpec {
	return service.TopologySpec{Kind: "torus", Dims: dims}
}

// smallTarget solves a 64-task stencil on an 8-node torus slice.
func smallTarget(t *testing.T) (target, *topomap.MapResult) {
	t.Helper()
	net, err := buildNet(serviceTorus(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := net.SparseAlloc(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := topomap.StencilTaskGraph(4, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := topomap.NewEngine(net.Topo, a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunSolve(context.Background(), tg, topomap.Solve{Mapper: topomap.UWH, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return target{tasks: tg, topo: net.Topo, alloc: a}, res
}

func TestCheckAnswerAcceptsSolve(t *testing.T) {
	tgt, res := smallTarget(t)
	if err := checkAnswer(tgt, res.GroupOf, res.NodeOf, res.Metrics); err != nil {
		t.Fatalf("a correct answer was rejected: %v", err)
	}
}

func TestCheckAnswerRejectsCorruptPlacement(t *testing.T) {
	tgt, res := smallTarget(t)
	cases := map[string]func(g, n []int32){
		"group out of range": func(g, n []int32) { g[0] = int32(len(n)) },
		"unallocated node":   func(g, n []int32) { n[g[0]] = int32(tgt.topo.Nodes() + 1) },
		"over capacity": func(g, n []int32) {
			for k := range n {
				n[k] = n[0]
			}
		},
		"task missing": nil,
	}
	for name, corrupt := range cases {
		g := append([]int32(nil), res.GroupOf...)
		n := append([]int32(nil), res.NodeOf...)
		if corrupt == nil {
			g = g[1:]
		} else {
			corrupt(g, n)
		}
		if err := checkAnswer(tgt, g, n, res.Metrics); err == nil {
			t.Errorf("%s: corrupted placement accepted", name)
		}
	}
}

func TestCheckAnswerRejectsTamperedMetric(t *testing.T) {
	tgt, res := smallTarget(t)
	cases := map[string]func(m *topomap.MapMetrics){
		"wh":       func(m *topomap.MapMetrics) { m.WH++ },
		"mc":       func(m *topomap.MapMetrics) { m.MC *= 1.001 },
		"negative": func(m *topomap.MapMetrics) { m.AC = -m.AC },
		"nan":      func(m *topomap.MapMetrics) { m.MC = math.NaN() },
		"makespan": func(m *topomap.MapMetrics) { m.Makespan++ },
	}
	for name, tamper := range cases {
		m := res.Metrics
		tamper(&m)
		if err := checkAnswer(tgt, res.GroupOf, res.NodeOf, m); err == nil {
			t.Errorf("%s: tampered metric accepted", name)
		}
	}
}

func TestAnswersDetectChangedRepeat(t *testing.T) {
	var a answers
	if err := a.check("k", []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.check("k", []int{1, 2}); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if err := a.check("k", []int{2, 1}); err == nil {
		t.Fatal("changed repeat accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.9); v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Fatalf("p50 of 1..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
	if v, _ := percentile(xs[:1], 0.9); v != 1 {
		t.Fatalf("p90 of one sample = %v", v)
	}
}

func TestSampleCountRule(t *testing.T) {
	beyond := func(n int, p float64) int {
		_, b := percentile(make([]float64, n), p)
		return b
	}
	if beyond(100, 0.9) < minBeyond || beyond(99, 0.9) >= minBeyond {
		t.Error("p90 needs 100 samples for ten beyond it")
	}
	if beyond(20, 0.5) < minBeyond || beyond(19, 0.5) >= minBeyond {
		t.Error("the median needs 20 samples for ten beyond it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for the same data.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.data)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}

func TestSharedShare(t *testing.T) {
	if got := sharedShare([]string{"a", "a", "b", "a"}); got != 0.5 {
		t.Fatalf("sharedShare = %v, want 0.5", got)
	}
	if got := sharedShare(nil); got != 0 {
		t.Fatalf("sharedShare(nil) = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{Op: 0, ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{Op: 0, ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{Op: 0, ID: 2, Parent: 0, Name: "a", Start: 2, End: 5},
		{Op: 0, ID: 3, Parent: 0, Name: "b", Start: 7, End: 8},
		{Op: 0, ID: 4, Parent: 3, Name: "c", Start: 7, End: 7.5},
	}
	self, count := r.selfTimes()
	want := map[string]float64{"op": 5, "a": 5, "b": 0.5, "c": 0.5}
	if !reflect.DeepEqual(self, want) || count["a"] != 2 {
		t.Fatalf("self times %v (counts %v), want %v", self, count, want)
	}
}

func TestOpSequenceDeterministic(t *testing.T) {
	seq := func(seed int64) []mixOp {
		w, err := newMapdMix(seed)
		if err != nil {
			t.Fatal(err)
		}
		m := w.(*mapdMix)
		var ops []mixOp
		for c := 0; c < m.callers(); c++ {
			for i := 0; i < 5*mixBlock; i++ {
				ops = append(ops, m.opAt(c, i))
			}
		}
		return ops
	}
	a, b := seq(5), seq(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two op sequences")
	}
	if reflect.DeepEqual(a, seq(6)) {
		t.Fatal("different seeds gave one op sequence")
	}
	// Every block holds the fixed mix.
	for blk := 0; blk < len(a)/mixBlock; blk++ {
		var n [3]int
		for _, op := range a[blk*mixBlock : (blk+1)*mixBlock] {
			n[op.kind]++
		}
		if n != [3]int{mixMemo, mixFresh, mixBlock - mixMemo - mixFresh} {
			t.Fatalf("block %d holds %v memo/fresh/remap ops", blk, n)
		}
	}
}

// shortPrefix shortens a workload's quality prefix for tests.
type shortPrefix struct{ workload }

func (shortPrefix) qualityPrefix() int { return 12 }

func TestQualityRepeatsForSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a quality prefix of every workload twice")
	}
	for name, ctor := range workloads {
		q := func() [2]float64 {
			w, err := ctor(9)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			qwh, qmc, err := quality(shortPrefix{w}, window{quality: map[[2]int][2]float64{}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return [2]float64{qwh, qmc}
		}
		if a, b := q(), q(); a != b {
			t.Errorf("%s: quality %v then %v for one seed", name, a, b)
		}
	}
}

func TestCompareHostGuard(t *testing.T) {
	rec := func(cpu string, v float64) record {
		return record{Workload: "w", Host: host{CPU: cpu, NProc: 2},
			Result: result{Metrics: map[string]metric{"latency_ms_p50": {Value: v, Unit: "ms"}}}}
	}
	var out bytes.Buffer
	compare(&out, []record{rec("a", 1)}, []record{rec("b", 1)})
	if strings.TrimSpace(strings.SplitN(out.String(), "\n", 2)[0]) != "incomparable host" || strings.Contains(out.String(), "latency") {
		t.Fatalf("different hosts were compared:\n%s", out.String())
	}
	out.Reset()
	compare(&out, []record{rec("a", 1), rec("a", 3)}, []record{rec("a", 2)})
	if !strings.Contains(out.String(), "latency_ms_p50") || !strings.Contains(out.String(), "+0.00%") {
		t.Fatalf("same-host comparison missing:\n%s", out.String())
	}
}
