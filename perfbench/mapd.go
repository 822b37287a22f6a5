package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	topomap "repro"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/wirebin"
)

// mapd-mix: an in-process mapd (default Config) with two closed-loop
// callers, caller 0 on the /v2 binary protocol and caller 1 on /v1
// JSON. Each caller's sequence is made of shuffled blocks of ten ops:
// six repeats of a six-request working set (solve-memo hits), three
// fresh-seed solves cycling mappers and networks (HET with loads and
// speeds among them), and one remap of a working-set fingerprint under
// a one-node removal. Binary memo hits are ten times faster than JSON
// ones, so the binary caller completes about twice the ops; pooled,
// the sub-millisecond binary hits are ~40% of ops, JSON hits and
// remaps (3–8 ms) the next ~30%, and fresh solves (15–35 ms) the top
// ~30%. p50 then falls inside the middle population and p90 inside the
// solve population, each ~10% or more away from a boundary.
const (
	mixBlock   = 10
	mixMemo    = 6
	mixFresh   = 3
	mixProcs   = 18 // per node: 64×18 slots leave room to lose a node
	mixNodes   = 64
	mixCapture = 60 // traced exchanges per caller kept for codec timing
)

var (
	workingMappers = []string{"UWH", "GEOM"}
	mixMappers     = []string{"UWH", "UMC", "UML", "GEOM", "HET"}
)

type mixNet struct {
	spec  service.TopologySpec
	net   *service.Network
	alloc *topomap.Allocation // unit speeds
	het   *topomap.Allocation // same nodes with per-node speeds
}

type mixKind int

const (
	kindMemo mixKind = iota
	kindFresh
	kindRemap
)

var kindNames = [...]string{"memo", "fresh", "remap"}

// mixOp is one op of a caller's sequence.
type mixOp struct {
	kind   mixKind
	entry  int // working-set entry (memo, remap)
	net    int // fresh
	mapper string
	seed   int64
	remove int32 // remap: the node the delta removes
}

type mapdMix struct {
	seed     int64
	nets     []mixNet
	spec     service.TaskGraphSpec // 1024-task 16×8×8 stencil with coordinates
	hetSpec  service.TaskGraphSpec // the same graph with per-task loads
	tasks    *topomap.TaskGraph
	hetTasks *topomap.TaskGraph

	srv     *service.Server
	clients [2]*client.Client
	meters  [2]*meter
	traced  [2]*client.Client
	fps     []string // fingerprints of the working-set answers

	answers answers
	refMu   sync.Mutex
	refs    map[string][2]float64
}

func newMapdMix(seed int64) (workload, error) {
	w := &mapdMix{seed: seed, refs: map[string][2]float64{}}
	specs := []service.TopologySpec{
		{Kind: "torus", Dims: []int{8, 8, 8}},
		{Kind: "fattree", K: 8},
		{Kind: "dragonfly", H: 3},
	}
	rng := rand.New(rand.NewSource(allocSeed))
	for k, ts := range specs {
		ts, err := ts.Normalize()
		if err != nil {
			return nil, err
		}
		net, err := ts.Build()
		if err != nil {
			return nil, err
		}
		a, err := net.SparseAlloc(mixNodes, derive(allocSeed, int64(k)))
		if err != nil {
			return nil, err
		}
		for i := range a.ProcsPerNode {
			a.ProcsPerNode[i] = mixProcs
		}
		het := &topomap.Allocation{Nodes: a.Nodes, ProcsPerNode: a.ProcsPerNode, Speeds: make([]float64, len(a.Nodes))}
		for i := range het.Speeds {
			het.Speeds[i] = []float64{1, 1.5, 2}[rng.Intn(3)]
		}
		w.nets = append(w.nets, mixNet{spec: ts, net: net, alloc: a, het: het})
	}
	tg, err := topomap.StencilTaskGraph(16, 8, 8, 8)
	if err != nil {
		return nil, err
	}
	w.spec = taskSpec(tg)
	w.hetSpec = w.spec
	w.hetSpec.Loads = make([]int64, tg.K)
	for i := range w.hetSpec.Loads {
		w.hetSpec.Loads[i] = 1 + rng.Int63n(8)
	}
	if w.tasks, err = w.spec.Build(); err != nil {
		return nil, err
	}
	if w.hetTasks, err = w.hetSpec.Build(); err != nil {
		return nil, err
	}
	return w, nil
}

// taskSpec converts a task graph to its wire form.
func taskSpec(tg *topomap.TaskGraph) service.TaskGraphSpec {
	g := tg.G
	s := service.TaskGraphSpec{N: tg.K}
	for u := 0; u < g.N(); u++ {
		for j := g.Xadj[u]; j < g.Xadj[u+1]; j++ {
			s.Edges = append(s.Edges, [3]int64{int64(u), int64(g.Adj[j]), g.EW[j]})
		}
	}
	for v := 0; v < tg.K; v++ {
		s.Coords = append(s.Coords, append([]float64(nil), tg.Coord(v)...))
	}
	return s
}

func allocSpec(a *topomap.Allocation) service.AllocationSpec {
	return service.AllocationSpec{Nodes: a.Nodes, ProcsPerNode: a.ProcsPerNode, Speeds: a.Speeds}
}

func (w *mapdMix) callers() int       { return 2 }
func (w *mapdMix) qualityPrefix() int { return 100 }

// workingEntry is working-set request e. Like the allocations, the
// working set is fixed (drawn from allocSeed): it is the service's
// standing popular traffic, and --seed varies the order of the ops,
// the fresh solves and the remaps around it.
func (w *mapdMix) workingEntry(e int) (net int, mapper string, seed int64) {
	return e % len(w.nets), workingMappers[e/len(w.nets)], derive(allocSeed, -4, int64(e))
}

func (w *mapdMix) workingSize() int { return len(w.nets) * len(workingMappers) }

// opAt derives op i of caller c: block i/10 is a seeded shuffle of the
// fixed kind counts, and each kind cycles its choices by its own
// running count, so every run holds the same mix.
func (w *mapdMix) opAt(c, i int) mixOp {
	b, pos := i/mixBlock, i%mixBlock
	slot := rand.New(rand.NewSource(derive(w.seed, int64(c), int64(b)))).Perm(mixBlock)[pos]
	switch {
	case slot < mixMemo:
		k := b*mixMemo + slot
		return mixOp{kind: kindMemo, entry: (k + c) % w.workingSize()}
	case slot < mixMemo+mixFresh:
		k := b*mixFresh + slot - mixMemo
		return mixOp{kind: kindFresh, net: (k / len(mixMappers)) % len(w.nets), mapper: mixMappers[k%len(mixMappers)],
			seed: derive(w.seed, int64(c), 1<<20+int64(k))}
	default:
		e := (b + c) % w.workingSize()
		net, _, _ := w.workingEntry(e)
		nodes := w.nets[net].alloc.Nodes
		return mixOp{kind: kindRemap, entry: e, remove: nodes[derive(w.seed, int64(c), 1<<21+int64(b))%int64(len(nodes))]}
	}
}

// mapRequest builds the wire request of a memo or fresh op.
func (w *mapdMix) mapRequest(op mixOp, traced bool) (service.MapRequest, target) {
	net, mapper, seed := op.net, op.mapper, op.seed
	if op.kind == kindMemo {
		net, mapper, seed = w.workingEntry(op.entry)
	}
	n := w.nets[net]
	req := service.MapRequest{Topology: n.spec, Allocation: allocSpec(n.alloc), Tasks: w.spec, Mapper: mapper, Seed: seed, Trace: traced}
	t := target{tasks: w.tasks, topo: n.net.Topo, alloc: n.alloc}
	if mapper == "HET" {
		req.Allocation, req.Tasks = allocSpec(n.het), w.hetSpec
		t.tasks, t.alloc = w.hetTasks, n.het
	}
	return req, t
}

func (w *mapdMix) setup() error {
	w.srv = service.New(service.Config{})
	h := w.srv.Handler()
	protos := [2]client.Protocol{client.ProtoBinary, client.ProtoJSON}
	for c, p := range protos {
		w.clients[c] = client.InProcess(h, client.WithProtocol(p))
		w.meters[c] = &meter{h: h}
		w.traced[c] = client.New("http://mapd.inprocess", &http.Client{Transport: w.meters[c]}, client.WithProtocol(p))
	}
	// Warm-up: solve the working set once (over the binary protocol),
	// which fills the solve memo, the intern table and the engine
	// cache, and yields the fingerprints remaps refer to.
	w.fps = w.fps[:0]
	for e := 0; e < w.workingSize(); e++ {
		req, t := w.mapRequest(mixOp{kind: kindMemo, entry: e}, false)
		resp, err := w.clients[0].Map(context.Background(), req)
		if err != nil {
			return err
		}
		if err := w.check(fmt.Sprintf("memo/%d", e), resp, t, mapCanon(resp)); err != nil {
			return err
		}
		w.fps = append(w.fps, resp.Fingerprint)
	}
	return nil
}

// check checks an answer against its target and compares canon, the
// answer with the fields describing the call cleared, with the first
// answer to the same request (any protocol).
func (w *mapdMix) check(key string, resp *service.MapResponse, t target, canon any) error {
	if !slices.Equal(resp.AllocNodes, t.alloc.Nodes) {
		return fmt.Errorf("%s: answer names allocation %v, want %v", key, resp.AllocNodes, t.alloc.Nodes)
	}
	if err := checkAnswer(t, resp.GroupOf, resp.NodeOf, wireMetrics(resp.Metrics)); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	return w.answers.check(key, canon)
}

// mapCanon is a map answer with elapsed_ms, cache_hit and the trace
// echo cleared: they describe the call, not the answer.
func mapCanon(resp *service.MapResponse) service.MapResponse {
	c := *resp
	c.ElapsedMS, c.CacheHit, c.Trace = 0, false, nil
	return c
}

// remapTarget is the delta of a remap op and the target its answer
// must meet: the working-set entry's allocation minus one node.
func (w *mapdMix) remapTarget(op mixOp) (topomap.AllocationDelta, target, error) {
	net, _, _ := w.workingEntry(op.entry)
	n := w.nets[net]
	delta := topomap.AllocationDelta{Remove: []int32{op.remove}}
	post, err := delta.Apply(n.net.Topo, n.alloc)
	return delta, target{tasks: w.tasks, topo: n.net.Topo, alloc: post}, err
}

func (w *mapdMix) op(c, i int, obs *observer) opResult {
	op := w.opAt(c, i)
	cl := w.clients[c]
	if obs != nil {
		cl = w.traced[c]
		w.meters[c].reset()
	}
	ctx := context.Background()
	var (
		r     opResult
		resp  *service.MapResponse
		rresp *service.RemapResponse
		t     target
		key   string
		canon any
		t0    time.Time
		err   error
	)
	switch op.kind {
	case kindMemo, kindFresh:
		var req service.MapRequest
		req, t = w.mapRequest(op, obs != nil)
		key = fmt.Sprintf("map/%s/%s/%d/%v", req.Topology.Kind, req.Mapper, req.Seed, req.Allocation.Speeds != nil)
		if op.kind == kindMemo {
			key = fmt.Sprintf("memo/%d", op.entry)
		}
		r.groups = []string{groupKey(fmt.Sprintf("stencil16x8x8/%v", req.Tasks.Loads != nil), t.alloc, req.Seed)}
		t0 = time.Now()
		resp, err = cl.Map(ctx, req)
		r.lat = time.Since(t0)
		if err == nil {
			canon = mapCanon(resp)
		}
	case kindRemap:
		var delta topomap.AllocationDelta
		if delta, t, err = w.remapTarget(op); err != nil {
			return opResult{err: err}
		}
		_, mapper, _ := w.workingEntry(op.entry)
		req := service.RemapRequest{Fingerprint: w.fps[op.entry], Delta: delta, Solve: topomap.Solve{Mapper: topomap.Mapper(mapper), Trace: obs != nil}}
		key = fmt.Sprintf("remap/%d/%d", op.entry, op.remove)
		t0 = time.Now()
		rresp, err = cl.Remap(ctx, req)
		r.lat = time.Since(t0)
		if err == nil {
			resp = &rresp.MapResponse
			c := *rresp
			c.MapResponse = mapCanon(resp)
			canon = c
		}
	}
	if err != nil {
		return opResult{err: fmt.Errorf("%s: %w", key, err)}
	}
	r.wh, r.mc = float64(resp.Metrics.WH), resp.Metrics.MC
	r.err = w.check(key, resp, t, canon)
	if obs != nil && r.err == nil {
		w.observe(obs, c, op, resp, rresp, t0, t0.Add(r.lat))
	}
	return r
}

// observe records a traced exchange: the op span, a server span per
// round trip, the solve's stages (fresh solves and remaps) flush with
// the end of the last server span, and the per-layer tallies.
func (w *mapdMix) observe(obs *observer, c int, op mixOp, resp *service.MapResponse, rresp *service.RemapResponse, t0, t1 time.Time) {
	proto := [2]string{"bin", "json"}[c]
	opID, root := obs.op("mapd."+kindNames[op.kind], t0, t1)
	ex := w.meters[c].take()
	var reqBytes, respBytes float64
	server := -1
	var serverEnd float64
	for _, e := range ex {
		start := obs.rec.at(e.start)
		serverEnd = start + float64(e.dur)/float64(time.Millisecond)
		server = obs.rec.child(opID, root, "server", start, serverEnd)
		reqBytes += float64(len(e.req))
		respBytes += float64(len(e.resp))
	}
	obs.tally("req_bytes."+proto, reqBytes)
	obs.tally("resp_bytes."+proto, respBytes)
	w.meters[c].capture(ex)
	var stageMS float64
	for _, st := range resp.Trace {
		stageMS += st.DurMS
	}
	switch op.kind {
	case kindMemo:
		obs.tally("resolve.ms", resp.ElapsedMS)
	case kindFresh:
		if server >= 0 {
			obs.solve(opID, server, serverEnd-stageMS, op.mapper, resp.Trace)
		}
		obs.tally("slot_wait.ms", resp.ElapsedMS-stageMS)
	case kindRemap:
		if server >= 0 {
			obs.rec.stages(opID, server, serverEnd-stageMS, resp.Trace)
		}
		obs.tally("remap.ms", float64(t1.Sub(t0))/float64(time.Millisecond))
		warm := 0.0
		if rresp.Warm {
			warm = 1
		}
		obs.tally("remap.warm_ratio", warm)
		if rresp.PairsTotal > 0 {
			obs.tally("remap.pairs_reused_ratio", float64(rresp.PairsReused)/float64(rresp.PairsTotal))
		}
		obs.tally("remap.migrated_tasks", float64(rresp.MigratedTasks))
	}
}

// reference returns DEF's WH and MC on op (c, i)'s task graph and
// allocation (after the delta, for a remap).
func (w *mapdMix) reference(c, i int) (float64, float64, error) {
	op := w.opAt(c, i)
	var t target
	if op.kind == kindRemap {
		var err error
		if _, t, err = w.remapTarget(op); err != nil {
			return 0, 0, err
		}
	} else {
		_, t = w.mapRequest(op, false)
	}
	key := topomap.AllocationFingerprint(t.alloc) + fmt.Sprint(t.tasks == w.hetTasks)
	w.refMu.Lock()
	defer w.refMu.Unlock()
	if v, ok := w.refs[key]; ok {
		return v[0], v[1], nil
	}
	eng, err := topomap.NewEngine(t.topo, t.alloc)
	if err != nil {
		return 0, 0, err
	}
	res, err := eng.RunSolve(context.Background(), t.tasks, topomap.Solve{Mapper: topomap.DEF})
	if err != nil {
		return 0, 0, err
	}
	v := [2]float64{float64(res.Metrics.WH), res.Metrics.MC}
	w.refs[key] = v
	return v[0], v[1], nil
}

func (w *mapdMix) probe() (*topomap.Engine, *topomap.TaskGraph, []topomap.Mapper, error) {
	n := w.nets[0]
	eng, err := topomap.NewEngine(n.net.Topo, n.alloc)
	return eng, w.tasks, freshMappers, err
}

// layers adds the service-side metrics: engine build time, the cache
// hit ratios from /metrics, and the codec times of the captured
// exchanges, timed through the same public codecs the server uses.
func (w *mapdMix) layers(obs *observer, out map[string]float64) error {
	var builds []float64
	for rep := 0; rep < 3; rep++ {
		for _, n := range w.nets {
			t0 := time.Now()
			if _, err := topomap.NewEngine(n.net.Topo, n.alloc); err != nil {
				return err
			}
			builds = append(builds, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	out["engine_build.ms"] = median(builds)
	ctr, err := scrape(w.srv.Handler())
	if err != nil {
		return err
	}
	ratio := func(hits, misses string) float64 {
		if d := ctr[hits] + ctr[misses]; d > 0 {
			return ctr[hits] / d
		}
		return 0
	}
	out["engine_cache.hit_ratio"] = ratio("mapd_engine_cache_hits_total", "mapd_engine_cache_misses_total")
	out["memo.hit_ratio"] = ratio("mapd_solve_memo_hits_total", "mapd_solve_memo_misses_total")
	out["intern.hit_ratio"] = ratio("mapd_intern_hits_total", "mapd_intern_misses_total")
	out["result_cache.hit_ratio"] = ratio("mapd_result_cache_hits_total", "mapd_result_cache_misses_total")
	for _, k := range []string{"req_bytes.json", "req_bytes.bin", "resp_bytes.json", "resp_bytes.bin",
		"resolve.ms", "slot_wait.ms", "remap.ms", "remap.warm_ratio", "remap.pairs_reused_ratio", "remap.migrated_tasks"} {
		out[k] = obs.mean(k)
	}
	codec, err := codecTimes(w.meters[0].captured, w.meters[1].captured)
	if err != nil {
		return err
	}
	for k, v := range codec {
		out[k] = v
	}
	return nil
}

// scrape reads the counters of GET /metrics (unlabeled series only).
func scrape(h http.Handler) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", rec.Code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// exchange is one in-process HTTP round trip as the meter saw it.
type exchange struct {
	path      string
	req, resp []byte
	start     time.Time
	dur       time.Duration
}

// meter is an http.RoundTripper serving requests straight into the
// handler, like client.InProcess, that also keeps each exchange's
// bodies and server time for the traced run. One meter serves one
// caller.
type meter struct {
	h        http.Handler
	mu       sync.Mutex
	ex       []exchange
	captured []exchange
}

func (m *meter) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		var err error
		if body, err = io.ReadAll(r.Body); err != nil {
			return nil, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	m.h.ServeHTTP(rec, r)
	d := time.Since(t0)
	m.mu.Lock()
	m.ex = append(m.ex, exchange{path: r.URL.Path, req: body, resp: rec.Body.Bytes(), start: t0, dur: d})
	m.mu.Unlock()
	return rec.Result(), nil
}

func (m *meter) reset() {
	m.mu.Lock()
	m.ex = nil
	m.mu.Unlock()
}

func (m *meter) take() []exchange {
	m.mu.Lock()
	defer m.mu.Unlock()
	ex := m.ex
	m.ex = nil
	return ex
}

// capture keeps the first mixCapture exchanges for codec timing.
func (m *meter) capture(ex []exchange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range ex {
		if len(m.captured) < mixCapture {
			m.captured = append(m.captured, e)
		}
	}
}

// codecTimes times the request decode and response encode of the
// captured exchanges through the codecs the server uses: encoding/json
// on the /v1 bodies, the wirebin frame codecs on the /v2 ones. Each
// figure is the mean per exchange of the median of five timings.
func codecTimes(bin, js []exchange) (map[string]float64, error) {
	timeIt := func(f func() error) (float64, error) {
		var ts []float64
		for k := 0; k < 5; k++ {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			ts = append(ts, float64(time.Since(t0))/float64(time.Millisecond))
		}
		return median(ts), nil
	}
	var dj, ej, db, eb []float64
	for _, e := range js {
		remap := strings.HasSuffix(e.path, "/remap")
		d, err := timeIt(func() error {
			if remap {
				var req service.RemapRequest
				return json.Unmarshal(e.req, &req)
			}
			var req service.MapRequest
			return json.Unmarshal(e.req, &req)
		})
		if err != nil {
			return nil, fmt.Errorf("decoding %s request: %w", e.path, err)
		}
		var resp any = &service.MapResponse{}
		if remap {
			resp = &service.RemapResponse{}
		}
		if err := json.Unmarshal(e.resp, resp); err != nil {
			return nil, fmt.Errorf("decoding %s response: %w", e.path, err)
		}
		enc, err := timeIt(func() error { _, err := json.Marshal(resp); return err })
		if err != nil {
			return nil, err
		}
		dj, ej = append(dj, d), append(ej, enc)
	}
	for _, e := range bin {
		d, err := timeIt(func() error {
			typ, payload, err := wirebin.DecodeHeader(e.req, len(e.req))
			if err != nil {
				return err
			}
			if typ == wirebin.MsgRemapRequest {
				_, err = wirebin.DecodeRemapReq(payload)
			} else {
				_, err = wirebin.DecodeMapReq(payload)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("decoding %s frame: %w", e.path, err)
		}
		typ, payload, err := wirebin.DecodeHeader(e.resp, len(e.resp))
		if err != nil {
			return nil, err
		}
		var encode func(*wirebin.Writer)
		switch typ {
		case wirebin.MsgMapResponse:
			m, err := wirebin.DecodeMapResp(payload)
			if err != nil {
				return nil, err
			}
			encode = func(fw *wirebin.Writer) { wirebin.EncodeMapResp(fw, m) }
		case wirebin.MsgRemapResponse:
			m, err := wirebin.DecodeRemapResp(payload)
			if err != nil {
				return nil, err
			}
			encode = func(fw *wirebin.Writer) { wirebin.EncodeRemapResp(fw, m) }
		default:
			continue // an intern-miss error frame
		}
		enc, err := timeIt(func() error {
			fw := wirebin.GetWriter()
			encode(fw)
			wirebin.PutWriter(fw)
			return nil
		})
		if err != nil {
			return nil, err
		}
		db, eb = append(db, d), append(eb, enc)
	}
	return map[string]float64{
		"decode.json.ms": mean(dj), "encode.json.ms": mean(ej),
		"decode.bin.ms": mean(db), "encode.bin.ms": mean(eb),
	}, nil
}
