package routecache

import (
	"fmt"

	"repro/internal/torus"
)

// PatchStats reports how much of a previous view's tabulated state a
// Patch call salvaged: Reused counts the ordered off-diagonal node
// pairs copied verbatim from the previous tables, Total the pairs the
// new view tabulates. On a pure node-removal or capacity-only delta
// every surviving pair is reused; only pairs touching an added node
// pay a route recomputation.
type PatchStats struct {
	Reused, Total int
}

// Patch builds the route-cache view for allocNodes by patching a
// previous view in place of a cold build: every (a,b) pair whose two
// endpoints were both allocated in prev keeps its tabulated hop
// distance and route verbatim — only pairs touching a node prev did
// not cover are recomputed from the base topology. The result is
// observationally identical to New(base, allocNodes) (both tables are
// derived from the same base Route/HopDist answers), so a patched
// engine and a cold engine produce byte-identical mappings; Patch
// only changes how much construction work the delta costs.
//
// prev must be a view returned by New or Patch; any other Topology
// falls back to a cold New build with zero reuse (stats report it).
func Patch(prev torus.Topology, allocNodes []int32) (torus.Topology, PatchStats, error) {
	n := len(allocNodes)
	stats := PatchStats{Total: n*n - n}
	var old *cached
	switch v := prev.(type) {
	case *cachedMultipath:
		old = v.cached
	case *cached:
		old = v
	default:
		view, err := New(prev, allocNodes)
		return view, stats, err
	}
	base := old.base
	c := &cached{
		base: base,
		idx:  make([]int32, base.Nodes()),
		n:    n,
		dist: make([]int32, n*n),
		off:  make([]int32, n*n+1),
	}
	for i := range c.idx {
		c.idx[i] = -1
	}
	for i, m := range allocNodes {
		if m < 0 || int(m) >= base.Nodes() {
			return nil, stats, fmt.Errorf("routecache: node %d outside topology", m)
		}
		if c.idx[m] >= 0 {
			return nil, stats, fmt.Errorf("routecache: duplicate node %d", m)
		}
		c.idx[m] = int32(i)
	}
	var route []int32
	for i, a := range allocNodes {
		oa := old.idx[a]
		for j, b := range allocNodes {
			p := i*n + j
			if a == b {
				c.dist[p] = 0
				c.off[p+1] = c.off[p]
				continue
			}
			if ob := old.idx[b]; oa >= 0 && ob >= 0 {
				// Both endpoints survive: copy the tabulated pair.
				op := int(oa)*old.n + int(ob)
				c.dist[p] = old.dist[op]
				c.links = append(c.links, old.links[old.off[op]:old.off[op+1]]...)
				c.off[p+1] = c.off[p] + (old.off[op+1] - old.off[op])
				stats.Reused++
				continue
			}
			c.dist[p] = int32(base.HopDist(int(a), int(b)))
			route = base.Route(int(a), int(b), route[:0])
			c.links = append(c.links, route...)
			c.off[p+1] = c.off[p] + int32(len(route))
		}
	}
	return c.finish(), stats, nil
}
