// Command perfbench is the repository's benchmark. It runs one named
// workload against the mapping engine or an in-process mapd, checks
// every answer, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a separate traced run) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload solve-fresh --seed 1 --seconds 30 --trace 0 [--out results.jsonl]
//	perfbench compare base.jsonl head.jsonl
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	topomap "repro"
)

// workload is one benchmark input set: the program state its ops run
// against and the closed-loop op sequence of each caller.
type workload interface {
	// setup builds the program state from the generated inputs (engine
	// or server) and warms it up; setup_s times it.
	setup() error
	// callers is the number of closed-loop callers.
	callers() int
	// qualityPrefix is how many leading ops of each caller's sequence
	// the quality metrics are computed over.
	qualityPrefix() int
	// op runs op i of caller c, times only the call into the program,
	// and checks the answer. obs is nil outside the traced phase.
	op(c, i int, obs *observer) opResult
	// reference returns the WH and MC of the DEF mapping of op (c, i)'s
	// task graph on the same allocation.
	reference(c, i int) (wh, mc float64, err error)
	// probe returns the engine, task graph and mappers the traced run
	// times at workers 1 and 2 for the per-stage speedups.
	probe() (*topomap.Engine, *topomap.TaskGraph, []topomap.Mapper, error)
	// layers adds the workload's own per-layer metrics after the
	// traced phase.
	layers(obs *observer, out map[string]float64) error
}

// opResult is the outcome of one op.
type opResult struct {
	lat    time.Duration
	wh, mc float64
	// groups lists the (task graph, capacities, seed) grouping keys
	// the op's solves requested, for shared_group_share.
	groups []string
	err    error
}

var workloads = map[string]func(seed int64) (workload, error){
	"solve-fresh":      newSolveFresh,
	"portfolio-shared": newPortfolioShared,
	"mapd-mix":         newMapdMix,
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// spansDir is where the traced run writes its spans, relative to the
// checkout root the benchmark runs from.
const spansDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a --out results file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	// P90Samples and P90Beyond are the latency sample count and the
	// samples above latency_ms_p90.
	P90Samples int    `json:"p90_samples,omitempty"`
	P90Beyond  int    `json:"p90_beyond,omitempty"`
	Result     result `json:"result"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"latency_ms_p50", "ms"}, {"latency_ms_p90", "ms"},
	{"throughput_ops_s", "1/s"}, {"ok_frac", "frac"},
	{"quality_wh", "ratio"}, {"quality_mc", "ratio"}, {"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"group.ms", "ms"}, {"group.bisections", "count"}, {"coarsen.ms", "ms"},
	{"map.ms", "ms"}, {"metrics.ms", "ms"}, {"unattributed.ms", "ms"},
	{"group.speedup", "x"}, {"map.speedup", "x"}, {"metrics.speedup", "x"},
	{"map.UWH.ms", "ms"}, {"map.UMC.ms", "ms"}, {"map.UML.ms", "ms"}, {"map.GEOM.ms", "ms"},
	{"map.cong_candidates_scored", "count"},
	{"portfolio.wall_ms", "ms"}, {"portfolio.candidate_ms_sum", "ms"},
	{"portfolio.parallel_eff", "frac"}, {"portfolio.group_ms_share", "frac"},
	{"balance.ms", "ms"}, {"balance.moves", "count"},
	{"engine_build.ms", "ms"}, {"engine_cache.hit_ratio", "frac"},
	{"decode.json.ms", "ms"}, {"decode.bin.ms", "ms"}, {"encode.json.ms", "ms"}, {"encode.bin.ms", "ms"},
	{"req_bytes.json", "B"}, {"req_bytes.bin", "B"}, {"resp_bytes.json", "B"}, {"resp_bytes.bin", "B"},
	{"resolve.ms", "ms"}, {"memo.hit_ratio", "frac"}, {"intern.hit_ratio", "frac"},
	{"result_cache.hit_ratio", "frac"}, {"slot_wait.ms", "ms"},
	{"remap.ms", "ms"}, {"remap.warm_ratio", "frac"}, {"remap.pairs_reused_ratio", "frac"},
	{"remap.migrated_tasks", "count"},
	{"alloc_bytes_per_op", "B"}, {"allocs_per_op", "count"}, {"gc_cpu_fraction", "frac"},
	{"shared_group_share", "frac"},
	{"untraced.latency_ms", "ms"}, {"traced.latency_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	seconds  float64
	trace    bool
	out      string
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var tr int
	fs.StringVar(&o.workload, "workload", "", "workload: solve-fresh, portfolio-shared or mapd-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs and op sequence are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "measuring window in seconds")
	fs.IntVar(&tr, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", "", "append the result record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctor, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (tr != 0 && tr != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload solve-fresh|portfolio-shared|mapd-mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	o.trace = tr == 1
	o.window = time.Duration(o.seconds * float64(time.Second))
	w, err := ctor(o.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s inputs: %v\n", o.workload, err)
		return 1
	}
	h := hostStamp()
	fmt.Fprintf(stdout, "host cpu=%q nproc=%d gomaxprocs=%d go=%s %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OSArch)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: h}
	if o.trace {
		err = runTraced(w, o, &rec, stdout, stderr)
	} else {
		err = runUntraced(w, o, &rec, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.out != "" {
		if err := appendRecord(o.out, rec); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// window is the outcome of one closed-loop measuring window.
type window struct {
	lats      []float64 // op latencies in ms, all callers pooled
	attempted int
	failed    int
	elapsed   time.Duration
	next      []int                 // next op index of each caller
	quality   map[[2]int][2]float64 // (caller, op) -> (wh, mc) in the prefix
	groups    []string              // grouping keys in completion order
}

// runWindow runs every caller's closed loop, starting caller c at op
// start[c], until d has passed; each caller waits for its reply before
// sending its next op.
func runWindow(w workload, start []int, d time.Duration, obs *observer, stderr io.Writer) window {
	type done struct {
		at     time.Time
		groups []string
	}
	type lane struct {
		lats    []float64
		failed  int
		next    int
		quality map[[2]int][2]float64
		done    []done
	}
	lanes := make([]lane, w.callers())
	began := time.Now()
	deadline := began.Add(d)
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for c := range lanes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &lanes[c]
			l.quality = map[[2]int][2]float64{}
			i := start[c]
			for ; time.Now().Before(deadline); i++ {
				r := w.op(c, i, obs)
				if r.err != nil {
					l.failed++
					logMu.Lock()
					fmt.Fprintf(stderr, "perfbench: caller %d op %d: %v\n", c, i, r.err)
					logMu.Unlock()
					continue
				}
				l.lats = append(l.lats, float64(r.lat)/float64(time.Millisecond))
				if i < w.qualityPrefix() {
					l.quality[[2]int{c, i}] = [2]float64{r.wh, r.mc}
				}
				l.done = append(l.done, done{time.Now(), r.groups})
			}
			l.next = i
		}(c)
	}
	wg.Wait()
	win := window{elapsed: time.Since(began), quality: map[[2]int][2]float64{}}
	var all []done
	for _, l := range lanes {
		win.lats = append(win.lats, l.lats...)
		win.failed += l.failed
		win.attempted += len(l.lats) + l.failed
		win.next = append(win.next, l.next)
		for k, v := range l.quality {
			win.quality[k] = v
		}
		all = append(all, l.done...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at.Before(all[b].at) })
	for _, d := range all {
		win.groups = append(win.groups, d.groups...)
	}
	return win
}

// sharedShare is the share of grouping keys that already occurred
// earlier in the sequence.
func sharedShare(keys []string) float64 {
	if len(keys) == 0 {
		return 0
	}
	seen := make(map[string]bool, len(keys))
	shared := 0
	for _, k := range keys {
		if seen[k] {
			shared++
		}
		seen[k] = true
	}
	return float64(shared) / float64(len(keys))
}

// quality completes each caller's quality prefix outside the window
// when the window ended early, then returns the geometric means of
// WH and MC over DEF's on the same task graph and allocation.
func quality(w workload, win window) (qwh, qmc float64, err error) {
	var rwh, rmc []float64
	for c := 0; c < w.callers(); c++ {
		for i := 0; i < w.qualityPrefix(); i++ {
			v, ok := win.quality[[2]int{c, i}]
			if !ok {
				r := w.op(c, i, nil)
				if r.err != nil {
					return 0, 0, fmt.Errorf("quality prefix op %d/%d: %w", c, i, r.err)
				}
				v = [2]float64{r.wh, r.mc}
			}
			dwh, dmc, err := w.reference(c, i)
			if err != nil {
				return 0, 0, err
			}
			if dwh <= 0 || dmc <= 0 || v[0] <= 0 || v[1] <= 0 {
				return 0, 0, fmt.Errorf("op %d/%d: non-positive WH or MC (%v, %v over DEF %v, %v)", c, i, v[0], v[1], dwh, dmc)
			}
			rwh = append(rwh, v[0]/dwh)
			rmc = append(rmc, v[1]/dmc)
		}
	}
	return geomean(rwh), geomean(rmc), nil
}

// setupTimes sets the workload up n times and returns the median
// duration in seconds; the last setup stays live for the run.
func setupTimes(w workload, n int) (float64, error) {
	var ts []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func runUntraced(w workload, o options, rec *record, stdout, stderr io.Writer) error {
	setupS, err := setupTimes(w, setupReps)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	win := runWindow(w, make([]int, w.callers()), o.window, nil, stderr)
	heap := liveHeapMB()
	qwh, qmc, err := quality(w, win)
	if err != nil {
		return err
	}
	// Ask the first op again: its answer must be byte-identical to the
	// first one (the workloads compare every repeated request).
	win.attempted++
	if r := w.op(0, 0, nil); r.err != nil {
		win.failed++
		fmt.Fprintf(stderr, "perfbench: repeated op 0: %v\n", r.err)
	}
	sort.Float64s(win.lats)
	p50, _ := percentile(win.lats, 0.5)
	p90, beyond := percentile(win.lats, 0.9)
	if beyond < minBeyond {
		fmt.Fprintf(stderr, "perfbench: only %d samples beyond latency_ms_p90 (want %d); lengthen --seconds\n", beyond, minBeyond)
	}
	rec.P90Samples, rec.P90Beyond = len(win.lats), beyond
	m := map[string]float64{
		"setup_s":          setupS,
		"latency_ms_p50":   p50,
		"latency_ms_p90":   p90,
		"throughput_ops_s": float64(len(win.lats)) / win.elapsed.Seconds(),
		"ok_frac":          float64(win.attempted-win.failed) / float64(win.attempted),
		"quality_wh":       qwh,
		"quality_mc":       qmc,
		"live_heap_mb":     heap,
	}
	if err := fill(rec, endToEnd, m, win.attempted, win.failed); err != nil {
		return err
	}
	printMetrics(stdout, endToEnd, rec.Result.Metrics)
	fmt.Fprintf(stdout, "  latency_ms_p90 from %d samples, %d beyond it\n", len(win.lats), beyond)
	fmt.Fprintf(stdout, "  shared_group_share %.4f frac\n", sharedShare(win.groups))
	return nil
}

// phaseStats are the runtime counters of one window.
type phaseStats struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

func readPhaseStats() phaseStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return phaseStats{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

func runTraced(w workload, o options, rec *record, stdout, stderr io.Writer) error {
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// Untraced and traced halves of the window, then the speedup probe:
	// the difference of the two halves is the tracing overhead.
	half := o.window * 2 / 5
	before := readPhaseStats()
	untraced := runWindow(w, make([]int, w.callers()), half, nil, stderr)
	after := readPhaseStats()
	obs := newObserver()
	traced := runWindow(w, untraced.next, half, obs, stderr)
	m := map[string]float64{}
	ops := float64(max(len(untraced.lats), 1))
	m["alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	m["allocs_per_op"] = float64(after.allocs-before.allocs) / ops
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["gc_cpu_fraction"] = (after.gcCPU - before.gcCPU) / cpu
	}
	m["untraced.latency_ms"] = mean(untraced.lats)
	m["traced.latency_ms"] = mean(traced.lats)
	m["trace.overhead_ms"] = m["traced.latency_ms"] - m["untraced.latency_ms"]
	m["shared_group_share"] = sharedShare(append(untraced.groups, traced.groups...))

	self, count := obs.rec.selfTimes()
	perOcc := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return self[name] / float64(count[name])
	}
	for _, st := range []string{"group", "coarsen", "map", "metrics", "balance"} {
		m[st+".ms"] = perOcc(st)
	}
	m["unattributed.ms"] = obs.rootSelf(self) / float64(max(obs.rec.ops, 1))
	for _, name := range []string{"group.bisections", "map.UWH.ms", "map.UMC.ms", "map.UML.ms", "map.GEOM.ms",
		"map.cong_candidates_scored", "balance.moves"} {
		m[name] = obs.mean(name)
	}
	eng, tasks, mappers, err := w.probe()
	if err != nil {
		return fmt.Errorf("speedup probe: %w", err)
	}
	sp, err := stageSpeedups(eng, tasks, mappers)
	if err != nil {
		return fmt.Errorf("speedup probe: %w", err)
	}
	for k, v := range sp {
		m[k+".speedup"] = v
	}
	if err := w.layers(obs, m); err != nil {
		return err
	}
	if err := obs.rec.write(filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	attempted := untraced.attempted + traced.attempted
	failed := untraced.failed + traced.failed
	if err := fill(rec, perLayer, m, attempted, failed); err != nil {
		return err
	}
	printMetrics(stdout, perLayer, rec.Result.Metrics)
	printSelfTimes(stdout, obs, self, count, m["traced.latency_ms"])
	return nil
}

// stageSpeedups solves each mapper on the probe input at workers 1 and
// 2 and returns, per stage, the summed stage time at 1 over that at 2.
func stageSpeedups(eng *topomap.Engine, tasks *topomap.TaskGraph, mappers []topomap.Mapper) (map[string]float64, error) {
	sum := map[int]map[string]float64{1: {}, 2: {}}
	for rep := 0; rep < 2; rep++ {
		for _, mp := range mappers {
			for _, workers := range []int{1, 2} {
				res, err := eng.RunSolve(context.Background(), tasks, topomap.Solve{Mapper: mp, Seed: 7, Workers: workers, Trace: true})
				if err != nil {
					return nil, err
				}
				for _, st := range res.Trace.Stages() {
					sum[workers][st.Name] += st.DurMS
				}
			}
		}
	}
	out := map[string]float64{}
	for _, st := range []string{"group", "map", "metrics"} {
		if sum[2][st] > 0 {
			out[st] = sum[1][st] / sum[2][st]
		}
	}
	return out, nil
}

// fill stores the metrics in the record in the order of defs; every
// metric must be a finite number.
func fill(rec *record, defs []metricDef, m map[string]float64, attempted, failed int) error {
	rec.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		rec.Result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return nil
}

func printMetrics(w io.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// printSelfTimes prints the per-op self time of every traced layer.
// With the unattributed remainder they add up to the traced latency
// when an op's layers run one after another; layers running in
// parallel (portfolio candidates, mapd callers) add up to more.
func printSelfTimes(w io.Writer, obs *observer, self map[string]float64, count map[string]int, latencyMS float64) {
	ops := float64(max(obs.rec.ops, 1))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var total float64
	fmt.Fprintf(w, "self time per op over %d traced ops:\n", obs.rec.ops)
	for _, n := range names {
		label := n
		if obs.isRoot(n) {
			label = n + " (unattributed)"
		}
		fmt.Fprintf(w, "  %-32s %10.3f ms  (%d spans)\n", label, self[n]/ops, count[n])
		total += self[n]
	}
	fmt.Fprintf(w, "  %-32s %10.3f ms\n", "sum of self times", total/ops)
	fmt.Fprintf(w, "  %-32s %10.3f ms\n", "traced op latency", latencyMS)
}

func appendRecord(path string, rec record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
