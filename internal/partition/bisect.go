package partition

import (
	"math/rand"

	"repro/internal/ds"
	"repro/internal/graph"
)

// bisect computes a 2-way partition of g with target weights tw using
// the full multilevel pipeline. It returns the side (0/1) per vertex;
// the slice is arena-backed when opt.Arena is set and the caller owns
// it (recursiveBisect returns it to the pool after splitting). It also
// returns the work done, for the caller's trace counters: the number
// of coarsening levels built and the FM moves made (rolled-back moves
// included).
func bisect(g *graph.Graph, tw [2]int64, opt Options, rng *rand.Rand) (side []int8, coarsenLevels, fmMoves int) {
	if g.N() == 0 {
		return nil, 0, 0
	}
	levels := coarsen(g, opt, rng)
	coarsest := levels[len(levels)-1].g
	side = initialBisection(coarsest, tw, opt, rng)
	fmMoves = refineBisection(coarsest, side, tw, opt)
	// Project back up the hierarchy, refining at each level. On
	// cancellation the projection still completes — the caller needs a
	// full-length side vector — but the refinement work is skipped.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		fineSide := opt.Arena.Int8s(fine.g.N())
		for v := 0; v < fine.g.N(); v++ {
			fineSide[v] = side[fine.cmap[v]]
		}
		opt.Arena.PutInt32s(fine.cmap)
		opt.Arena.PutInt8s(side)
		side = fineSide
		if opt.Par.Cancelled() {
			continue
		}
		fmMoves += refineBisection(fine.g, side, tw, opt)
	}
	return side, len(levels) - 1, fmMoves
}

// initialBisection runs several greedy-graph-growing attempts and
// keeps the best (feasible first, then lowest cut).
func initialBisection(g *graph.Graph, tw [2]int64, opt Options, rng *rand.Rand) []int8 {
	var best []int8
	bestCut := int64(-1)
	bestFeasible := false
	maxW0 := maxAllowed(tw[0], opt.Imbalance)
	for run := 0; run < opt.InitRuns; run++ {
		side := growBisection(g, tw, opt, rng)
		w := sideWeights(g, side)
		feasible := w[0] <= maxW0 && w[1] <= maxAllowed(tw[1], opt.Imbalance)
		cut := cutOf(g, side)
		better := false
		switch {
		case best == nil:
			better = true
		case feasible && !bestFeasible:
			better = true
		case feasible == bestFeasible && cut < bestCut:
			better = true
		}
		if better {
			opt.Arena.PutInt8s(best)
			best, bestCut, bestFeasible = side, cut, feasible
		} else {
			opt.Arena.PutInt8s(side)
		}
	}
	return best
}

// growBisection grows part 0 from a random seed via max-gain frontier
// expansion until it reaches its target weight share; everything else
// is part 1. Disconnected graphs restart from fresh random seeds.
func growBisection(g *graph.Graph, tw [2]int64, opt Options, rng *rand.Rand) []int8 {
	n := g.N()
	side := opt.Arena.Int8s(n)
	for i := range side {
		side[i] = 1
	}
	total := g.TotalVertexWeight()
	// Scale the target in case vertex weights don't sum to tw0+tw1.
	want := int64(float64(total) * float64(tw[0]) / float64(tw[0]+tw[1]))
	if want <= 0 {
		return side
	}
	var w0 int64
	heap := opt.Arena.MaxHeap(n)
	inPart := opt.Arena.Bools(n)
	defer func() {
		opt.Arena.PutMaxHeap(heap)
		opt.Arena.PutBools(inPart)
	}()
	addVertex := func(v int32) {
		side[v] = 0
		inPart[v] = true
		w0 += g.VertexWeight(int(v))
		heap.Remove(int(v))
		nb := g.Neighbors(int(v))
		wt := g.Weights(int(v))
		for i, u := range nb {
			if inPart[u] {
				continue
			}
			// Gain of pulling u in: edges to part 0 minus edges away.
			heap.Add(int(u), 2*wt[i])
		}
	}
	for w0 < want {
		if heap.Len() == 0 {
			// Pick an unassigned seed (new component).
			seed := -1
			start := rng.Intn(n)
			for off := 0; off < n; off++ {
				v := (start + off) % n
				if !inPart[v] {
					seed = v
					break
				}
			}
			if seed < 0 {
				break
			}
			addVertex(int32(seed))
			continue
		}
		v, _ := heap.Pop()
		if w0+g.VertexWeight(v) > maxAllowed(tw[0], opt.Imbalance) && w0 >= want/2 {
			// Adding v would overshoot badly; stop here.
			break
		}
		addVertex(int32(v))
	}
	return side
}

// refineBisection runs FM passes until no pass improves the cut and
// returns the number of moves the passes made.
func refineBisection(g *graph.Graph, side []int8, tw [2]int64, opt Options) int {
	moves := 0
	for pass := 0; pass < opt.FMPasses; pass++ {
		if opt.Par.Cancelled() {
			break
		}
		improved, n := fmPass(g, side, tw, opt)
		moves += n
		if !improved {
			break
		}
	}
	return moves
}

// fmPass performs one Fiduccia–Mattheyses pass with rollback to the
// best prefix. It reports whether the cut or feasibility improved, and
// how many moves it made before rolling back.
func fmPass(g *graph.Graph, side []int8, tw [2]int64, opt Options) (bool, int) {
	n := g.N()
	maxW := [2]int64{maxAllowed(tw[0], opt.Imbalance), maxAllowed(tw[1], opt.Imbalance)}
	w := sideWeights(g, side)

	ar := opt.Arena
	// gain[v] = cut reduction if v moves to the other side.
	gains := ar.Int64s(n)
	heaps := [2]*ds.IndexedMaxHeap{ar.MaxHeap(n), ar.MaxHeap(n)}
	locked := ar.Bools(n)
	defer func() {
		ar.PutInt64s(gains)
		ar.PutMaxHeap(heaps[0])
		ar.PutMaxHeap(heaps[1])
		ar.PutBools(locked)
	}()
	for v := 0; v < n; v++ {
		var ext, internal int64
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			if side[g.Adj[i]] != side[v] {
				ext += g.EdgeWeight(int(i))
			} else {
				internal += g.EdgeWeight(int(i))
			}
		}
		gains[v] = ext - internal
		heaps[side[v]].Push(v, gains[v])
	}

	type move struct {
		v    int32
		from int8
	}
	var history []move
	var gainSum, bestSum int64
	bestPrefix := 0
	negStreak := 0
	imbalanced := w[0] > maxW[0] || w[1] > maxW[1]

moves:
	for heaps[0].Len()+heaps[1].Len() > 0 {
		// Choose source side: the overweight one when infeasible;
		// otherwise the side offering the better feasible move.
		var from int
		switch {
		case w[0] > maxW[0]:
			from = 0
		case w[1] > maxW[1]:
			from = 1
		default:
			from = -1
			var bestGain int64
			for s := 0; s < 2; s++ {
				if heaps[s].Len() == 0 {
					continue
				}
				v, gkey := heaps[s].Peek()
				if w[1-s]+g.VertexWeight(v) > maxW[1-s] {
					continue // destination would overflow
				}
				if from < 0 || gkey > bestGain {
					from, bestGain = s, gkey
				}
			}
			if from < 0 {
				break moves // no feasible move remains
			}
		}
		if heaps[from].Len() == 0 {
			break
		}
		v, gkey := heaps[from].Pop()
		// While infeasible, allow any move off the heavy side.
		if !imbalanced && w[1-from]+g.VertexWeight(v) > maxW[1-from] {
			locked[v] = true
			continue
		}
		// Apply the move.
		to := 1 - from
		side[v] = int8(to)
		w[from] -= g.VertexWeight(v)
		w[to] += g.VertexWeight(v)
		locked[v] = true
		gainSum += gkey
		history = append(history, move{int32(v), int8(from)})
		// Update neighbour gains.
		for i := g.Xadj[v]; i < g.Xadj[v+1]; i++ {
			u := g.Adj[i]
			if locked[u] {
				continue
			}
			ew := g.EdgeWeight(int(i))
			if int(side[u]) == from {
				gains[u] += 2 * ew
			} else {
				gains[u] -= 2 * ew
			}
			heaps[side[u]].Update(int(u), gains[u])
		}
		nowFeasible := w[0] <= maxW[0] && w[1] <= maxW[1]
		improved := gainSum > bestSum || (imbalanced && nowFeasible)
		if improved {
			bestSum = gainSum
			bestPrefix = len(history)
			if nowFeasible {
				imbalanced = false
			}
			negStreak = 0
		} else {
			negStreak++
			if negStreak > opt.MaxNegMoves {
				break
			}
		}
	}
	// Roll back past the best prefix.
	for i := len(history) - 1; i >= bestPrefix; i-- {
		m := history[i]
		to := 1 - m.from
		side[m.v] = m.from
		w[to] -= g.VertexWeight(int(m.v))
		w[m.from] += g.VertexWeight(int(m.v))
	}
	return bestSum > 0 || bestPrefix > 0 && bestSum >= 0, len(history)
}

func maxAllowed(target int64, eps float64) int64 {
	return int64(float64(target) * (1 + eps))
}

func sideWeights(g *graph.Graph, side []int8) [2]int64 {
	var w [2]int64
	for v := 0; v < g.N(); v++ {
		w[side[v]] += g.VertexWeight(v)
	}
	return w
}

func cutOf(g *graph.Graph, side []int8) int64 {
	var cut int64
	for u := 0; u < g.N(); u++ {
		for i := g.Xadj[u]; i < g.Xadj[u+1]; i++ {
			if side[g.Adj[i]] != side[u] {
				cut += g.EdgeWeight(int(i))
			}
		}
	}
	return cut / 2
}
