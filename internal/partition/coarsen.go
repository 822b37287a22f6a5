package partition

import (
	"math/rand"

	"repro/internal/arena"
	"repro/internal/ds"
	"repro/internal/graph"
)

// matchVertices computes a matching of g according to the policy and
// returns the coarse vertex id of every fine vertex plus the number
// of coarse vertices. Unmatched vertices map to singleton coarse
// vertices. The matching scratch and the returned map are borrowed
// from ar; bisect returns the map once it has projected through it.
func matchVertices(g *graph.Graph, policy Matching, rng *rand.Rand, ar *arena.Arena) ([]int32, int) {
	n := g.N()
	match := ar.Int32s(n)
	for i := range match {
		match[i] = -1
	}
	// The visiting order is rng.Perm(n), drawn identically into pooled
	// int32 scratch.
	order := ar.Int32s(n)
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		switch policy {
		case HeavyEdge:
			var bestW int64 = -1
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				u := g.Adj[i]
				if u == v || match[u] >= 0 {
					continue
				}
				if w := g.EdgeWeight(int(i)); w > bestW {
					bestW, best = w, u
				}
			}
		case RandomEdge:
			cnt := 0
			for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
				u := g.Adj[i]
				if u == v || match[u] >= 0 {
					continue
				}
				cnt++
				if rng.Intn(cnt) == 0 {
					best = u
				}
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	ar.PutInt32s(order)
	// Assign coarse ids.
	cmap := ar.Int32s(n)
	for i := range cmap {
		cmap[i] = -1
	}
	nc := int32(0)
	for v := 0; v < n; v++ {
		if cmap[v] >= 0 {
			continue
		}
		cmap[v] = nc
		if m := match[v]; m >= 0 && int(m) != v {
			cmap[m] = nc
		}
		nc++
	}
	ar.PutInt32s(match)
	return cmap, int(nc)
}

// contract builds the coarse graph for a coarse map: vertex weights
// are summed, parallel edges merged, intra-cluster edges dropped. The
// edge-staging scratch is borrowed from ar (nil allocates fresh).
func contract(g *graph.Graph, cmap []int32, nc int, ar *arena.Arena) *graph.Graph {
	vw := make([]int64, nc)
	for v := 0; v < g.N(); v++ {
		vw[cmap[v]] += g.VertexWeight(v)
	}
	triples := ar.Edges(g.M())
	cnt := 0
	for u := 0; u < g.N(); u++ {
		cu := cmap[u]
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			cv := cmap[g.Adj[i]]
			if cu == cv {
				continue
			}
			triples[cnt] = ds.EdgeTriple{U: cu, V: cv, W: g.EdgeWeight(int(i))}
			cnt++
		}
	}
	out := graph.FromTriples(ar, nc, triples[:cnt], vw)
	ar.PutEdges(triples)
	return out
}

// level is one rung of the multilevel hierarchy.
type level struct {
	g    *graph.Graph
	cmap []int32 // fine vertex -> coarse vertex of the next level
}

// coarsen builds the hierarchy from fine to coarse, stopping when the
// graph is small enough or stops shrinking.
func coarsen(g *graph.Graph, opt Options, rng *rand.Rand) []level {
	levels := []level{{g: g}}
	cur := g
	for cur.N() > opt.CoarsenTo {
		cmap, nc := matchVertices(cur, opt.Matching, rng, opt.Arena)
		if float64(nc) > 0.95*float64(cur.N()) {
			opt.Arena.PutInt32s(cmap)
			break // diminishing returns (star-like graphs)
		}
		next := contract(cur, cmap, nc, opt.Arena)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{g: next})
		cur = next
	}
	return levels
}
