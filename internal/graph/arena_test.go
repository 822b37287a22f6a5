package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/ds"
)

// TestArenaVariantsEquivalent proves the pooled builders produce
// graphs identical to the plain ones — including on a warm arena,
// where the staging buffer and the bucket cursors are recycled slices
// left over from a build of a different size.
func TestArenaVariantsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ar := arena.New()
	for round, n := range []int{60, 200, 60, 25} { // round 0 cold, later rounds warm
		var us, vs []int32
		var ws []int64
		for i := 0; i < 7*n; i++ {
			us = append(us, int32(rng.Intn(n)))
			vs = append(vs, int32(rng.Intn(n)))
			ws = append(ws, int64(rng.Intn(9)+1))
		}
		plain := FromEdges(n, us, vs, ws, nil)
		pooled := FromEdgesArena(ar, n, us, vs, ws, nil)
		if !reflect.DeepEqual(plain, pooled) {
			t.Fatalf("round %d: FromEdgesArena diverged", round)
		}
		var triples []ds.EdgeTriple
		for i := range us {
			if us[i] != vs[i] {
				triples = append(triples, ds.EdgeTriple{U: us[i], V: vs[i], W: ws[i]})
			}
		}
		fromNil := FromTriples(nil, n, append([]ds.EdgeTriple(nil), triples...), nil)
		if fromPool := FromTriples(ar, n, triples, nil); !reflect.DeepEqual(fromNil, fromPool) || !reflect.DeepEqual(fromNil, plain) {
			t.Fatalf("round %d: FromTriples diverged between nil and pooled arenas", round)
		}
		if !reflect.DeepEqual(plain.Symmetrize(), pooled.SymmetrizeArena(ar)) {
			t.Fatalf("round %d: SymmetrizeArena diverged", round)
		}
		verts := []int32{0, 3, 7, 11, 20, int32(n - 1)}
		g1, r1 := plain.InducedSubgraph(verts)
		g2, r2 := pooled.InducedSubgraphArena(ar, verts)
		if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(r1, r2) {
			t.Fatalf("round %d: InducedSubgraphArena diverged", round)
		}
	}
}
