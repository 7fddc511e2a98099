package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchSpec(path string) (benchSpec, error) {
	var bs benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return bs, err
	}
	if err := json.Unmarshal(data, &bs); err != nil {
		return bs, fmt.Errorf("%s: %w", path, err)
	}
	return bs, nil
}

// runKey says which runs a result line came from, as the run's
// "# perfbench" header line gives it. The A/B gate compares only runs that
// match on all of it.
type runKey struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// group is the part of a runKey the gate pools samples over: one
// workload in one mode, all matched seeds together.
type group struct {
	workload string
	seconds  int
	trace    bool
}

// compareFiles is the same-host A/B gate. Each file holds the complete
// output of repeated runs of one source, concatenated. The gate pairs the
// runs of the two files by workload, seed, measuring time and trace mode,
// drops runs without a match on the other side, and compares every metric
// per workload in the direction specPath (BENCHMARK.json) gives it. It
// prints one verdict per metric and reports whether any regressed.
func compareFiles(w io.Writer, specPath, basePath, headPath string) (bool, error) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return false, err
	}
	better := map[string]string{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		better[m.Name] = m.Better
	}
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	head, err := readResults(headPath)
	if err != nil {
		return false, err
	}
	type pooled struct {
		seeds      []uint64
		base, head map[string][]float64
	}
	groups := map[group]*pooled{}
	var order []group
	unmatched := 0
	for _, k := range sortedKeys(base) {
		b := base[k]
		h, ok := head[k]
		if !ok {
			unmatched++
			continue
		}
		g := group{k.workload, k.seconds, k.trace}
		p := groups[g]
		if p == nil {
			p = &pooled{base: map[string][]float64{}, head: map[string][]float64{}}
			groups[g] = p
			order = append(order, g)
		}
		p.seeds = append(p.seeds, k.seed)
		for n, xs := range b {
			p.base[n] = append(p.base[n], xs...)
		}
		for n, xs := range h {
			p.head[n] = append(p.head[n], xs...)
		}
	}
	for k := range head {
		if _, ok := base[k]; !ok {
			unmatched++
		}
	}
	if len(groups) == 0 {
		return false, fmt.Errorf("%s and %s have no runs with the same workload, seed, seconds and trace mode", basePath, headPath)
	}
	if unmatched > 0 {
		fmt.Fprintf(w, "# left out %d workload/seed/seconds/trace combinations run on one side only\n", unmatched)
	}
	regressed := false
	for _, g := range order {
		p := groups[g]
		fmt.Fprintf(w, "# workload=%s seconds=%d trace=%t seeds=%v\n", g.workload, g.seconds, g.trace, p.seeds)
		names := make([]string, 0, len(p.base))
		for n := range p.base {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			dir, ok := better[n]
			if !ok {
				return false, fmt.Errorf("metric %s is not in %s", n, specPath)
			}
			if len(p.head[n]) == 0 {
				fmt.Fprintf(w, "%-34s not reported by the head runs\n", n)
				continue
			}
			c := compare(p.base[n], p.head[n], dir == "higher")
			regressed = regressed || c.Regressed
			fmt.Fprintf(w, "%-34s n=%d/%d %v\n", n, len(p.base[n]), len(p.head[n]), c)
		}
	}
	return regressed, nil
}

// sortedKeys returns the keys of runs ordered by workload, measuring
// time, trace mode and seed.
func sortedKeys(runs map[runKey]map[string][]float64) []runKey {
	keys := make([]runKey, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		switch {
		case a.workload != b.workload:
			return a.workload < b.workload
		case a.seconds != b.seconds:
			return a.seconds < b.seconds
		case a.trace != b.trace:
			return !a.trace
		}
		return a.seed < b.seed
	})
	return keys
}

// readResults collects every metric's values from a file of concatenated
// run outputs, keyed by the header line that precedes each result line.
func readResults(path string) (map[runKey]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	out := map[runKey]map[string][]float64{}
	var key *runKey
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "# perfbench ") {
			var k runKey
			if _, err := fmt.Sscanf(line, "# perfbench workload=%s seed=%d seconds=%d trace=%t",
				&k.workload, &k.seed, &k.seconds, &k.trace); err != nil {
				return nil, fmt.Errorf("%s: header %q: %w", path, line, err)
			}
			key = &k
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		if key == nil {
			return nil, fmt.Errorf("%s: a result line without its run's \"# perfbench\" header", path)
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run reported incorrect output", path)
		}
		m := out[*key]
		if m == nil {
			m = map[string][]float64{}
			out[*key] = m
		}
		for n, v := range r.Metrics {
			m[n] = append(m[n], v.Value)
		}
		key = nil
	}
	return out, sc.Err()
}
