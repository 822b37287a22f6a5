package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareMain compares two results files written with --out: per
// workload and metric, each side's median and quartiles over its runs
// and the change of the medians. Results from different hosts are not
// compared. It reports and never gates: the exit code is 0 unless a
// file cannot be read.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.jsonl head.jsonl")
		return 2
	}
	var sides [2][]record
	for k, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[k] = recs
	}
	compare(stdout, sides[0], sides[1])
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compare prints the per-metric comparison, or "incomparable host" and
// nothing else when the records do not all carry one host stamp.
func compare(w io.Writer, base, head []record) {
	hosts := map[host]bool{}
	for _, r := range append(append([]record(nil), base...), head...) {
		hosts[r.Host] = true
	}
	if len(hosts) > 1 {
		fmt.Fprintln(w, "incomparable host")
		for h := range hosts {
			fmt.Fprintf(w, "  cpu=%q nproc=%d gomaxprocs=%d go=%s %s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.OSArch)
		}
		return
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	var keys []key
	for side, recs := range [2][]record{base, head} {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				if _, ok := units[k]; !ok {
					units[k] = m.Unit
					keys = append(keys, k)
				}
				vals[side][k] = append(vals[side][k], m.Value)
			}
		}
	}
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		order[d.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return order[a.metric] < order[b.metric]
	})
	fmt.Fprintf(w, "%-18s %-28s %-6s %-34s %-34s %s\n", "workload", "metric", "unit", "base n median [q1 q3]", "head n median [q1 q3]", "change")
	for _, k := range keys {
		b, h := vals[0][k], vals[1][k]
		change := "-"
		if len(b) > 0 && len(h) > 0 {
			if mb := median(b); mb != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(median(h)-mb)/mb)
			}
		}
		fmt.Fprintf(w, "%-18s %-28s %-6s %-34s %-34s %s\n", k.workload, k.metric, units[k], summary(b), summary(h), change)
	}
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%d %.6g [%.6g %.6g]", len(xs), med, q1, q3)
}
