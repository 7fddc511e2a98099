package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	o := newOutcome()
	o.attempted += 2
	o.checkDigest("same", "abc", "abc")
	o.checkDigest("different", "abc", "abd")
	if o.failed != 1 || len(o.problems) != 1 {
		t.Fatalf("failed = %d, problems = %v; want one failure", o.failed, o.problems)
	}
}

func TestConformFillsAndRejects(t *testing.T) {
	specs := []metricSpec{{"a_s", "s"}, {"b", "count"}}
	o := newOutcome()
	o.set("a_s", 1.5, "s")
	if err := o.conform(specs); err != nil {
		t.Fatal(err)
	}
	if m := o.metrics["b"]; m.Value != 0 || m.Unit != "count" {
		t.Fatalf("unmeasured metric reported as %+v, want 0 count", m)
	}
	o.set("c", 1, "s")
	if err := o.conform(specs); err == nil {
		t.Fatal("a metric outside the list was accepted")
	}
	o = newOutcome()
	o.set("a_s", 1, "ms")
	if err := o.conform(specs); err == nil {
		t.Fatal("a metric with the wrong unit was accepted")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository
// root in step with the metrics and workloads this command reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not run by the command", w.Name)
		}
	}
	check := func(kind string, specs []metricSpec, listed []specMetric) {
		if len(listed) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			m := listed[i]
			if m.Name != s.name || m.Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command reports %s (%s)",
					kind, i, m.Name, m.Unit, s.name, s.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
}

func TestGoldenIsForDefaultSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if g.Seed != defaultSeed || len(g.Fig4) != 2*simInputs || len(g.City) != simInputs || g.Campaign == "" {
		t.Fatalf("golden.json = %+v; want digests for seed %d of every workload", g, defaultSeed)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseCPUProfile decodes a real runtime/pprof profile and finds this
// test's busy loop on the sampled stacks.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spinning float64
	for _, s := range p.samples {
		total += float64(s.cpuNs)
		for _, fn := range s.stack {
			if fn == "roadrunner/perfbench.spin" || fn == "main.spin" {
				spinning += float64(s.cpuNs)
				break
			}
		}
	}
	if total == 0 || spinning/total < 0.5 {
		t.Fatalf("spin has %.0f of %.0f sampled ns; want most of them", spinning, total)
	}
}

func TestClassifyPicksInnermostLayer(t *testing.T) {
	stack := []string{
		"roadrunner/internal/ml.gemmNN",
		"roadrunner/internal/ml.(*Network).Train",
		"roadrunner/internal/core.(*Experiment).TrainOnData.func1",
		"roadrunner/internal/sim.(*Engine).Run",
		"roadrunner/internal/core.(*Experiment).Run",
	}
	if got := classify(stack); got != "ml.train" {
		t.Fatalf("classify = %s, want ml.train", got)
	}
	if got := classify([]string{"runtime.gcBgMarkWorker"}); got != "unattributed" {
		t.Fatalf("classify(gc worker) = %s, want unattributed", got)
	}
	if got := classify([]string{"roadrunner/internal/strategy.(*Opportunistic).OnEncounter", "main.(*tracedStrategy).OnEncounter", "roadrunner/internal/sim.(*Engine).Run"}); got != "strategy.callback" {
		t.Fatalf("classify(callback) = %s, want strategy.callback", got)
	}
}

func TestMeanOfMediansWeighsGroupsEqually(t *testing.T) {
	o := newOutcome()
	o.setMeanOfMedians("x_s", [][]float64{{1, 2, 30}, {10}}, "s")
	if got := o.metrics["x_s"].Value; got != 6 {
		t.Fatalf("mean of medians = %v, want (2+10)/2 = 6", got)
	}
}

// TestCompareFilesMatchesRuns: the gate pairs runs by workload, seed,
// seconds and trace mode, takes each metric's direction from the spec,
// and leaves out runs that have no match on the other side.
func TestCompareFilesMatchesRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("BENCHMARK.json", `{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2}],
		"per_layer": [{"name": "hit_ratio", "unit": "ratio", "better": "higher"}]}`)
	run := func(workload string, seed int, runS, hit float64) string {
		return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=30 trace=false\n# host cpu=\"x\"\nrun_s %v s\n"+
			`{"correct": true, "attempted": 1, "failed": 0, "metrics": {"run_s": {"value": %v, "unit": "s"}, "hit_ratio": {"value": %v, "unit": "ratio"}}}`+"\n",
			workload, seed, runS, runS, hit)
	}
	var base, same, slower, lowerHits strings.Builder
	for seed := 1; seed <= 10; seed++ {
		x := 1 + 0.001*float64(seed)
		base.WriteString(run("fig4", seed, x, 0.5))
		same.WriteString(run("fig4", seed, x, 0.5))
		slower.WriteString(run("fig4", seed, x*1.05, 0.5))
		lowerHits.WriteString(run("fig4", seed, x, 0.45))
	}
	// Runs on seeds the base never ran, or of another workload, are
	// slower by far; they have no match and are left out.
	for seed := 1; seed <= 11; seed++ {
		same.WriteString(run("fig4", 100+seed, 50, 0.5))
		same.WriteString(run("city", seed, 50, 0.5))
	}
	basePath := write("base.out", base.String())
	for _, c := range []struct {
		name, head string
		want       bool
	}{
		{"same", same.String(), false},
		{"slower", slower.String(), true},
		{"fewer hits", lowerHits.String(), true},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, spec, basePath, write(c.name+".out", c.head))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.want {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, regressed, c.want, out.String())
		}
		if !strings.Contains(out.String(), "seeds=[1 2 3 4 5 6 7 8 9 10]") || strings.Count(out.String(), "n=10/10") != 2 {
			t.Errorf("%s: want both metrics compared over the ten matched runs\n%s", c.name, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, spec, basePath, write("other.out", run("city", 1, 1, 0.5))); err == nil {
		t.Error("files without a matching run were compared")
	}
	if _, err := compareFiles(io.Discard, spec, basePath, write("headerless.out", `{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}`)); err == nil {
		t.Error("a result line without its header was accepted")
	}
}
