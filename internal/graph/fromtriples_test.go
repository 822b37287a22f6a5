package graph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arena"
	"repro/internal/ds"
)

// refFromTriples is the reference CSR construction FromTriples must
// match: a comparison sort by (U,V), then a merge summing the weights
// of equal (U,V) runs.
func refFromTriples(n int, triples []ds.EdgeTriple, vw []int64) *Graph {
	ts := append([]ds.EdgeTriple(nil), triples...)
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].U != ts[j].U {
			return ts[i].U < ts[j].U
		}
		return ts[i].V < ts[j].V
	})
	var out []ds.EdgeTriple
	for _, t := range ts {
		if k := len(out) - 1; k >= 0 && out[k].U == t.U && out[k].V == t.V {
			out[k].W += t.W
			continue
		}
		out = append(out, t)
	}
	g := &Graph{
		Xadj: make([]int32, n+1),
		Adj:  make([]int32, len(out)),
		EW:   make([]int64, len(out)),
		VW:   vw,
	}
	for i, t := range out {
		g.Xadj[t.U+1]++
		g.Adj[i] = t.V
		g.EW[i] = t.W
	}
	for v := 0; v < n; v++ {
		g.Xadj[v+1] += g.Xadj[v]
	}
	return g
}

// randomTriples draws m loop-free triples over n vertices. Targets
// come from the first span vertices only, so a small span forces heavy
// duplication; weights near MaxInt64 make merged sums wrap.
func randomTriples(rng *rand.Rand, n, m, span int) []ds.EdgeTriple {
	ts := make([]ds.EdgeTriple, 0, m)
	for len(ts) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(span))
		if u == v {
			continue
		}
		w := 1 + rng.Int63n(100)
		if rng.Intn(50) == 0 {
			w = math.MaxInt64 - rng.Int63n(10)
		}
		ts = append(ts, ds.EdgeTriple{U: u, V: v, W: w})
	}
	return ts
}

// TestFromTriplesMatchesReference checks FromTriples against the
// reference sort-and-merge on random triple sets, with both a nil and
// a shared warm arena, and checks that the result does not depend on
// the order the triples arrive in.
func TestFromTriplesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hub := func(n, deg int) []ds.EdgeTriple { // row 0 far above insertionMax, unsorted, duplicated
		var ts []ds.EdgeTriple
		for i := 0; i < deg; i++ {
			ts = append(ts, ds.EdgeTriple{U: 0, V: int32(1 + rng.Intn(n-1)), W: int64(i + 1)})
		}
		return append(ts, randomTriples(rng, n, 2*n, n)...)
	}
	cases := []struct {
		name    string
		n       int
		triples []ds.EdgeTriple
	}{
		{"n=0", 0, nil},
		{"no triples", 7, nil},
		{"single", 2, []ds.EdgeTriple{{U: 1, V: 0, W: 3}}},
		{"heavy duplicates", 40, randomTriples(rng, 40, 2000, 3)},
		{"empty rows", 500, randomTriples(rng, 500, 60, 500)},
		{"dense", 30, randomTriples(rng, 30, 3000, 30)},
		{"hub rows", 200, hub(200, 20*insertionMax)},
		{"sorted hub", 100, func() []ds.EdgeTriple {
			var ts []ds.EdgeTriple
			for v := int32(1); v < 100; v++ {
				ts = append(ts, ds.EdgeTriple{U: 0, V: v, W: int64(v)})
			}
			return ts
		}()},
	}
	ar := arena.New()
	for _, c := range cases {
		vw := make([]int64, c.n)
		for i := range vw {
			vw[i] = int64(i + 1)
		}
		want := refFromTriples(c.n, c.triples, vw)
		for round := 0; round < 3; round++ {
			in := append([]ds.EdgeTriple(nil), c.triples...)
			if round > 0 {
				rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
			}
			for _, a := range []*arena.Arena{nil, ar} {
				got := FromTriples(a, c.n, append([]ds.EdgeTriple(nil), in...), vw)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d (arena %v): FromTriples = %+v, want %+v", c.name, round, a != nil, got, want)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if c.n > 0 && &got.VW[0] != &vw[0] {
					t.Fatalf("%s: vw was copied, want it retained", c.name)
				}
			}
		}
	}
}
