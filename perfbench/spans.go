package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one recorded interval of the traced run. Spans of one op
// share Op; the op's root span has Parent -1.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// recorder keeps the spans of a traced run in memory; write dumps
// them when the run ends. A nil recorder records nothing, which is how
// the untraced phases run the same op code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to milliseconds since the epoch.
func (r *recorder) at(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Millisecond)
}

// op records the root span of a new op and returns its op and span ids.
func (r *recorder) op(name string, start, end time.Time) (op, id int) {
	if r == nil {
		return 0, -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	op = r.ops
	r.ops++
	id = len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: -1, Name: name, Start: r.at(start), End: r.at(end)})
	return op, id
}

// child records a span under parent and returns its id.
func (r *recorder) child(op, parent int, name string, startMS, endMS float64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: startMS, End: endMS})
	return id
}

// stages records a solve's stage timeline (as MapResult.Trace or a
// response's trace field reports it) under parent, offset to baseMS.
func (r *recorder) stages(op, parent int, baseMS float64, st []trace.Stage) {
	for _, s := range st {
		r.child(op, parent, s.Name, baseMS+s.StartMS, baseMS+s.StartMS+s.DurMS)
	}
}

// selfTimes returns, per span name, the summed self time in
// milliseconds and the number of spans: a span's duration minus the
// part of its interval its child spans cover.
func (r *recorder) selfTimes() (self map[string]float64, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self = make(map[string]float64)
	count = make(map[string]int)
	for _, s := range r.spans {
		self[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
		count[s.Name]++
	}
	return self, count
}

// covered is the length of the union of the children's intervals
// clipped to [start, end].
func covered(start, end float64, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB float64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write dumps the spans as one JSON array.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	buf, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// observer is the traced phase's instrumentation: the span recorder
// plus per-layer tallies (counters and per-mapper stage times) that
// the span tree does not carry.
type observer struct {
	rec   *recorder
	mu    sync.Mutex
	sum   map[string]float64
	n     map[string]int
	roots map[string]bool
}

func newObserver() *observer {
	return &observer{rec: newRecorder(), sum: map[string]float64{}, n: map[string]int{}, roots: map[string]bool{}}
}

// tally adds one observation of a per-layer quantity.
func (o *observer) tally(name string, v float64) {
	o.mu.Lock()
	o.sum[name] += v
	o.n[name]++
	o.mu.Unlock()
}

// mean is the mean of a tallied quantity, 0 when never observed.
func (o *observer) mean(name string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n[name] == 0 {
		return 0
	}
	return o.sum[name] / float64(o.n[name])
}

// op records the root span of an op; its self time is the op's
// unattributed remainder.
func (o *observer) op(name string, start, end time.Time) (op, id int) {
	o.mu.Lock()
	o.roots[name] = true
	o.mu.Unlock()
	return o.rec.op(name, start, end)
}

func (o *observer) isRoot(name string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.roots[name]
}

// rootSelf sums the self times of the op root spans.
func (o *observer) rootSelf(self map[string]float64) float64 {
	var t float64
	for n, v := range self {
		if o.isRoot(n) {
			t += v
		}
	}
	return t
}

// solve records one solve's stage timeline under parent and tallies
// the per-mapper map time and the stage counters the metrics name.
func (o *observer) solve(op, parent int, baseMS float64, mapper string, stages []trace.Stage) {
	o.rec.stages(op, parent, baseMS, stages)
	for _, s := range stages {
		switch s.Name {
		case "group":
			o.tally("group.bisections", float64(s.Counters["bisections"]))
		case "map":
			o.tally("map."+mapper+".ms", s.DurMS)
			if mapper == "UMC" {
				o.tally("map.cong_candidates_scored", float64(s.Counters["cong_candidates_scored"]))
			}
		case "balance":
			o.tally("balance.moves", float64(s.Counters["balance_moves"]))
		}
	}
}
