package main

import (
	"fmt"
	"math"

	topomap "repro"
	"repro/internal/hetero"
	"repro/internal/service"
)

// target is what an answer is checked against: the task graph that was
// mapped, the network, and the allocation the answer had to respect.
type target struct {
	tasks *topomap.TaskGraph
	topo  topomap.Topology
	alloc *topomap.Allocation
}

// checkAnswer verifies one returned mapping: every task is placed on
// an allocated node, no node holds more tasks than its capacity, and
// the reported metrics are non-negative and equal the metrics
// recomputed from GroupOf/NodeOf with topomap.EvaluateMetrics (the
// makespan from the allocation's node speeds when it declares them).
func checkAnswer(t target, groupOf, nodeOf []int32, got topomap.MapMetrics) error {
	if len(groupOf) != t.tasks.K {
		return fmt.Errorf("%d tasks placed, want %d", len(groupOf), t.tasks.K)
	}
	capOf := make(map[int32]int, t.alloc.NumNodes())
	var speedOf []float64
	if !t.alloc.UnitSpeeds() {
		speedOf = make([]float64, t.topo.Nodes())
	}
	for i, n := range t.alloc.Nodes {
		capOf[n] = t.alloc.ProcsPerNode[i]
		if speedOf != nil {
			speedOf[n] = t.alloc.Speed(i)
		}
	}
	used := make(map[int32]int, len(nodeOf))
	for task, g := range groupOf {
		if g < 0 || int(g) >= len(nodeOf) {
			return fmt.Errorf("task %d in group %d of %d", task, g, len(nodeOf))
		}
		n := nodeOf[g]
		if _, ok := capOf[n]; !ok {
			return fmt.Errorf("task %d placed on unallocated node %d", task, n)
		}
		used[n]++
	}
	for n, c := range used {
		if c > capOf[n] {
			return fmt.Errorf("node %d holds %d tasks, capacity %d", n, c, capOf[n])
		}
	}
	want := topomap.EvaluateMetrics(t.tasks, t.topo, &topomap.Placement{GroupOf: groupOf, NodeOf: nodeOf})
	if speedOf != nil {
		want.Makespan, want.LoadImbalance = hetero.Summary(t.tasks.G, groupOf, nodeOf, speedOf)
	}
	return compareMetrics(got, want)
}

// compareMetrics checks every reported metric for sign and against
// its recomputed value: counts exactly, real-valued congestion and
// makespan figures to a relative 1e-9 (they are sums of quotients).
func compareMetrics(got, want topomap.MapMetrics) error {
	ints := []struct {
		name      string
		got, want int64
	}{
		{"th", got.TH, want.TH}, {"wh", got.WH, want.WH}, {"mmc", got.MMC, want.MMC},
		{"icv", got.ICV, want.ICV}, {"icm", got.ICM, want.ICM},
		{"mnrv", got.MNRV, want.MNRV}, {"mnrm", got.MNRM, want.MNRM},
		{"used_links", int64(got.UsedLinks), int64(want.UsedLinks)},
	}
	for _, m := range ints {
		if m.got < 0 {
			return fmt.Errorf("metric %s is negative: %d", m.name, m.got)
		}
		if m.got != m.want {
			return fmt.Errorf("metric %s reported %d, recomputed %d", m.name, m.got, m.want)
		}
	}
	floats := []struct {
		name      string
		got, want float64
	}{
		{"mc", got.MC, want.MC}, {"amc", got.AMC, want.AMC}, {"ac", got.AC, want.AC},
		{"makespan", got.Makespan, want.Makespan}, {"load_imbalance", got.LoadImbalance, want.LoadImbalance},
	}
	for _, m := range floats {
		if !(m.got >= 0) {
			return fmt.Errorf("metric %s is negative or NaN: %v", m.name, m.got)
		}
		if math.Abs(m.got-m.want) > 1e-9*math.Max(math.Abs(m.want), math.SmallestNonzeroFloat64) {
			return fmt.Errorf("metric %s reported %v, recomputed %v", m.name, m.got, m.want)
		}
	}
	return nil
}

// wireMetrics lifts the wire form of the metrics back to MapMetrics.
func wireMetrics(m service.Metrics) topomap.MapMetrics {
	return topomap.MapMetrics{
		TH: m.TH, WH: m.WH, MMC: m.MMC, MC: m.MC, AMC: m.AMC, AC: m.AC,
		ICV: m.ICV, ICM: m.ICM, MNRV: m.MNRV, MNRM: m.MNRM, UsedLinks: m.UsedLinks,
		Makespan: m.Makespan, LoadImbalance: m.LoadImbalance,
	}
}
