// Command perfbench is the repository's same-host benchmark. One closed-loop
// client process runs one workload, times each layer from outside through
// public entry points (core.New, Experiment.Run, the strategy.Env methods,
// the roadrunnerd HTTP API), checks that the program's outputs are
// correct, and prints every metric with its unit. The last line of
// standard output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones from a traced run. Run it
// through run.sh from the repository root, which builds this command and
// the daemon first:
//
//	bash perfbench/run.sh --workload fig4 --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests are recorded in golden.json.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden holds the canonical-result digests recorded for defaultSeed.
type golden struct {
	Seed     uint64            `json:"seed"`
	Fig4     map[string]string `json:"fig4"`
	City     map[string]string `json:"city"`
	Campaign string            `json:"campaign"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects one invocation's metrics and correctness tally.
type outcome struct {
	metrics   map[string]metric
	samples   map[string][]float64 // raw samples behind a median, for the human report
	attempted int
	failed    int
	problems  []string
	// aliases prints a metric once more under the name the workload's
	// users know it by (alias -> metric).
	aliases map[string]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, samples: map[string][]float64{}}
}

func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// setMedian reports the median of samples and keeps them for the report.
func (o *outcome) setMedian(name string, samples []float64, unit string) {
	o.set(name, median(samples), unit)
	o.samples[name] = samples
}

// setMeanOfMedians reports the mean over groups of each group's median,
// keeping the group medians for the report.
func (o *outcome) setMeanOfMedians(name string, groups [][]float64, unit string) {
	meds := make([]float64, len(groups))
	sum := 0.0
	for i, g := range groups {
		meds[i] = median(g)
		sum += meds[i]
	}
	o.set(name, sum/float64(len(groups)), unit)
	o.samples[name] = meds
}

// fail records n failed operations.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkDigest compares a digest with the expected one. A mismatch fails
// the operation that produced the digest: an experiment run, or the
// merged-result request of a campaign.
func (o *outcome) checkDigest(what, got, want string) {
	if got != want {
		o.fail(1, "%s: digest %s, want %s", what, short(got), short(want))
	}
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
	work     string
}

// window is how long one phase measures: the whole run, or half of it
// for each of the untraced and traced phases of a traced run.
func (c config) window() time.Duration {
	w := time.Duration(c.seconds) * time.Second
	if c.trace {
		w /= 2
	}
	return w
}

var workloads = map[string]func(config, *outcome) error{
	"fig4":             func(c config, o *outcome) error { return simWorkload(c, o, "fig4") },
	"city":             func(c config, o *outcome) error { return simWorkload(c, o, "city") },
	"campaign_local":   func(c config, o *outcome) error { return campaignWorkload(c, o, false) },
	"campaign_cluster": func(c config, o *outcome) error { return campaignWorkload(c, o, true) },
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: fig4, city, campaign_local, campaign_cluster")
	flag.Uint64Var(&c.seed, "seed", defaultSeed, "workload seed; the program only sees the inputs generated from it")
	flag.IntVar(&c.seconds, "seconds", 20, "measuring time in seconds, split between the untraced and traced phases with -trace 1")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&c.daemon, "daemon", ".bench_build/roadrunnerd", "roadrunnerd binary for the campaign workloads")
	flag.StringVar(&c.work, "work", ".bench_build/work", "scratch directory for daemon stores and cross-workload digests")
	base := flag.String("compare-base", "", "compare mode: concatenated outputs of runs of the parent commit")
	head := flag.String("compare-head", "", "compare mode: concatenated outputs of runs of the change")
	flag.Parse()
	if *base != "" || *head != "" {
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", *base, *head)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig4|city|campaign_local|campaign_cluster --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}

	printHost(c)
	o := newOutcome()
	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	err := run(c, o)
	if err == nil {
		err = o.conform(specs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHuman(o)
	rep := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printHost prints the host facts and the invocation, so every report
// says where and on which inputs it was measured.
func printHost(c config) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%t\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s source=%q\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sourceVersion())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceVersion names the measured source, as run.sh found it: a hash of
// the Go sources, and the git commit when there is one.
func sourceVersion() string {
	if v := os.Getenv("PERFBENCH_SOURCE"); v != "" {
		return v
	}
	return "unknown"
}

// printHuman prints one line per metric: name, value, unit, and for
// medians the sample count and quartiles.
func printHuman(o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		line := fmt.Sprintf("%-34s %14.6g %s", n, m.Value, m.Unit)
		if s := o.samples[n]; len(s) > 0 {
			q1, q3 := quartiles(s)
			line += fmt.Sprintf("  (from %d values: q1 %.6g q3 %.6g; %.4g)", len(s), q1, q3, s)
		}
		fmt.Println(line)
	}
	aliases := make([]string, 0, len(o.aliases))
	for a := range o.aliases {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		n := o.aliases[a]
		if m, ok := o.metrics[n]; ok {
			fmt.Printf("%-34s %14.6g %s  (= %s)\n", a, m.Value, m.Unit, n)
		}
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("%-34s %14.6g ratio  (%d failed of %d attempted)\n", "error_rate", rate, o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Println("FAIL", p)
	}
}

// crossCheck records a digest under name in the work directory, or, when
// another workload recorded one first, compares against it. It returns the
// other workload's digest and whether there was one. Digests are kept per
// measured source, so only runs built from the same source are compared;
// with the source unknown nothing is recorded or compared.
func crossCheck(work, name, digest string) (string, bool, error) {
	if sourceVersion() == "unknown" {
		return "", false, nil
	}
	src := sha256.Sum256([]byte(sourceVersion()))
	dir := filepath.Join(work, "digests", hex.EncodeToString(src[:6]))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", false, err
	}
	path := filepath.Join(dir, name)
	prev, err := os.ReadFile(path)
	if err == nil {
		return string(bytes.TrimSpace(prev)), true, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return "", false, err
	}
	return "", false, os.WriteFile(path, []byte(digest+"\n"), 0o644)
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// windowFull reports whether another cycle, as long as the average one so
// far, would overrun the measuring window.
func windowFull(start time.Time, window time.Duration, done int) bool {
	elapsed := time.Since(start) //roadlint:allow wallclock benchmark measuring window
	return elapsed+elapsed/time.Duration(done) > window
}

// peakRSSMB reads the peak resident set (VmHWM) of a process.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
