package taskgraph

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// groupingDigest pins the §III-A grouping of the digest corpus below.
// Group vectors feed every mapper, rankfile and metric, so a change to
// the partitioner or the CSR builders that moves any vector changes
// this constant; performance work on those paths must leave it alone.
const groupingDigest = "8aa656f62c938c7fc3b835f54f63fc5ea7fc34a902bb89a67d701c76222616ce"

// hubGraph is an irregular task graph: a random sparse background, a
// few hub tasks talking to a large share of the others, and every
// message sent two or three times so the builder merges parallel
// edges. Deterministic in seed.
func hubGraph(n, hubs int, seed int64) *TaskGraph {
	rng := rand.New(rand.NewSource(seed))
	var us, vs []int32
	var ws []int64
	send := func(a, b int32) {
		for r := 1 + rng.Intn(3); r > 0; r-- {
			us = append(us, a)
			vs = append(vs, b)
			ws = append(ws, 1+rng.Int63n(50))
		}
	}
	for v := 1; v < n; v++ {
		send(int32(v), int32(rng.Intn(v)))
	}
	for e := 0; e < 2*n; e++ {
		send(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	for h := 0; h < hubs; h++ {
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				send(int32(h), int32(v))
			}
		}
	}
	return &TaskGraph{G: graph.FromEdges(n, us, vs, ws, nil), K: n}
}

// TestGroupTasksDigest hashes the grouping vectors of three graphs —
// the 16³ stencil on 256 nodes × 16 slots, a 13×11×7 stencil on
// uneven capacities, and a hub graph with parallel edges — at several
// seeds and at 1, 2 and 8 workers (on a shared arena, so warm pooled
// scratch is exercised), and compares the hash with groupingDigest.
func TestGroupTasksDigest(t *testing.T) {
	type instance struct {
		name string
		tg   *TaskGraph
		caps []int64
	}
	cube, err := Stencil(16, 16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := Stencil(13, 11, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	uneven := make([]int64, 47) // 47 nodes of 16..28 slots, 1001 tasks
	for i := range uneven {
		uneven[i] = int64(16 + 4*(i%4))
	}
	hubs := hubGraph(700, 4, 11)
	hubCaps := make([]int64, 23) // 23 nodes of 32 slots, 700 tasks
	for i := range hubCaps {
		hubCaps[i] = 32
	}
	cases := []instance{
		{"stencil16", cube, slices.Repeat([]int64{16}, 256)},
		{"stencil13x11x7", odd, uneven},
		{"hubs", hubs, hubCaps},
	}

	ar := arena.New()
	h := sha256.New()
	for _, c := range cases {
		for _, seed := range []int64{1, 2, 7} {
			var ref []int32
			for _, workers := range []int{1, 2, 8} {
				par := parallel.NewGroup(context.Background(), workers)
				group, err := GroupTasksExec(c.tg, c.caps, seed, par, ar, nil)
				if err != nil {
					t.Fatalf("%s seed %d w%d: %v", c.name, seed, workers, err)
				}
				if ref == nil {
					ref = group
				} else if !slices.Equal(ref, group) {
					t.Fatalf("%s seed %d: w%d grouping differs from w1", c.name, seed, workers)
				}
			}
			if err := binary.Write(h, binary.LittleEndian, ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != groupingDigest {
		t.Fatalf("grouping digest = %s, want %s", got, groupingDigest)
	}
}
