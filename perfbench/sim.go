package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"roadrunner/internal/core"
	"roadrunner/internal/metrics"
	"roadrunner/internal/mobility"
	"roadrunner/internal/roadnet"
	"roadrunner/internal/sim"
	"roadrunner/internal/strategy"
	"roadrunner/internal/trace"
)

// Workload sizes. Figure 4 runs the paper's configuration at a reduced
// round count; the city run keeps the mid-size fleet of the scaling
// roadmap item at a round count that fits a few cycles into one run.
const (
	fig4Rounds = 4
	cityRounds = 12
	// simInputs is the number of experiment seeds one invocation cycles
	// through.
	simInputs = 3
)

// simExperiment is one experiment of a simulator workload: a config and a
// factory for a fresh strategy (strategies are stateful).
type simExperiment struct {
	name     string
	cfg      core.Config
	strategy func() (strategy.Strategy, error)
}

// fig4Experiments is the paper's Figure 4: BASE (vanilla FL) then OPP on
// core.DefaultConfig with the same seed.
func fig4Experiments(seed uint64) []simExperiment {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return []simExperiment{
		{"base", cfg, func() (strategy.Strategy, error) {
			c := strategy.DefaultFedAvgConfig()
			c.Rounds = fig4Rounds
			return strategy.NewFederatedAveraging(c)
		}},
		{"opp", cfg, func() (strategy.Strategy, error) {
			c := strategy.DefaultOppConfig()
			c.Rounds = fig4Rounds
			return strategy.NewOpportunistic(c)
		}},
	}
}

// cityExperiments is one OPP run of core.SmallConfig's MLP task over a
// 2000-vehicle fleet on a 30×30 grid for two simulated hours: a run where
// the tick, the spatial index and V2X dominate and ML is cheap.
func cityExperiments(seed uint64) []simExperiment {
	cfg := core.SmallConfig()
	cfg.Seed = seed
	cfg.Grid = roadnet.DefaultGridConfig()
	cfg.Grid.Rows, cfg.Grid.Cols = 30, 30
	cfg.Fleet = mobility.DefaultGenConfig()
	cfg.Fleet.Vehicles = 2000
	cfg.Fleet.Horizon = 2 * sim.Hour
	return []simExperiment{
		{"opp", cfg, func() (strategy.Strategy, error) {
			c := strategy.DefaultOppConfig()
			c.Rounds = cityRounds
			return strategy.NewOpportunistic(c)
		}},
	}
}

// simCycle is one pass over a workload's experiments.
type simCycle struct {
	setup, run, wall time.Duration
	digests          map[string]string // "<seed>/<experiment>" -> canonical-bytes digest
	events           uint64
	trainTasks       float64
	sends, delivered int64
	ticks            int
	rssMB            float64           // peak resident set during the cycle
	traced           []*tracedStrategy // per experiment, traced cycles only
	evalMisses       int               // evaluations the accuracy memo did not serve, traced cycles only
}

// runSimCycle builds and runs every experiment once, timing core.New and
// Experiment.Run from outside, and digests each Result's canonical bytes.
func runSimCycle(exps []simExperiment, traced bool) (*simCycle, error) {
	c := &simCycle{digests: map[string]string{}}
	start := time.Now() //roadlint:allow wallclock benchmark host timing
	for _, x := range exps {
		strat, err := x.strategy()
		if err != nil {
			return nil, err
		}
		if traced {
			ts := newTracedStrategy(strat)
			c.traced = append(c.traced, ts)
			strat = ts
			// The span tracer records an eval span only for an
			// evaluation the accuracy memo did not serve. It is
			// result-invariant, which the digest check confirms.
			x.cfg.Trace = true
		}
		t0 := time.Now() //roadlint:allow wallclock benchmark host timing
		exp, err := core.New(x.cfg, strat)
		c.setup += time.Since(t0) //roadlint:allow wallclock benchmark host timing
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", x.name, err)
		}
		t1 := time.Now() //roadlint:allow wallclock benchmark host timing
		res, err := exp.Run()
		c.run += time.Since(t1) //roadlint:allow wallclock benchmark host timing
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", x.name, err)
		}
		data, err := res.CanonicalBytes()
		if err != nil {
			return nil, fmt.Errorf("%s: canonical bytes: %w", x.name, err)
		}
		sum := sha256.Sum256(data)
		c.digests[fmt.Sprintf("%d/%s", x.cfg.Seed, x.name)] = hex.EncodeToString(sum[:])
		if err := checkSimResult(x.name, res); err != nil {
			return nil, err
		}
		if res.Trace != nil {
			for _, sp := range res.Trace.Spans {
				if sp.Kind == trace.KindEval {
					c.evalMisses++
				}
			}
		}
		c.events += res.EventsProcessed
		c.trainTasks += res.Metrics.Counter(metrics.CounterTrainTasks)
		for _, st := range res.Comm {
			c.sends += st.MessagesSent
			c.delivered += st.MessagesDelivered
		}
		// The tick reschedules itself every TickInterval from t=0 until the
		// run ends.
		c.ticks += int(float64(res.End)/float64(x.cfg.TickInterval)) + 1
	}
	c.wall = time.Since(start) //roadlint:allow wallclock benchmark host timing
	return c, nil
}

// checkSimResult rejects results that cannot come from a working run.
func checkSimResult(name string, res *core.Result) error {
	switch {
	case res.EventsProcessed == 0:
		return fmt.Errorf("%s: no events processed", name)
	case res.End <= 0:
		return fmt.Errorf("%s: run ended at t=%v", name, res.End)
	case res.FinalAccuracy <= 0 || res.FinalAccuracy > 1:
		return fmt.Errorf("%s: final accuracy %v outside (0, 1]", name, res.FinalAccuracy)
	case res.Metrics.Counter(metrics.CounterTrainTasks) == 0:
		return fmt.Errorf("%s: no training tasks ran", name)
	}
	return nil
}

// simRun is everything a simulator workload measured in one invocation.
type simRun struct {
	untraced []*simCycle
	traced   []*simCycle
	profile  map[string]float64 // CPU seconds per profile layer and traced cycle
	allocMB  float64            // per untraced cycle
	gcPause  float64            // per untraced cycle, seconds
}

// runSim runs untraced cycles for the measuring window; with traced it then
// runs traced cycles for a second window of the same length under a CPU
// profile. Cycle i runs input set i mod len(sets), and each phase runs
// every set at least twice, so every input is repeated. Allocation and GC
// pauses are read over the untraced cycles, which run no benchmark code
// inside the simulation.
func runSim(sets [][]simExperiment, window time.Duration, traced bool) (*simRun, error) {
	r := &simRun{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var err error
	if r.untraced, err = cycles(sets, window, false); err != nil {
		return nil, err
	}
	if !traced {
		return r, nil
	}
	runtime.ReadMemStats(&after)
	n := float64(len(r.untraced))
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
	r.gcPause = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / n
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	r.traced, err = cycles(sets, window, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	r.profile = p.attribute()
	n = float64(len(r.traced))
	for k := range r.profile {
		r.profile[k] /= n
	}
	return r, nil
}

func cycles(sets [][]simExperiment, window time.Duration, traced bool) ([]*simCycle, error) {
	var out []*simCycle
	start := time.Now() //roadlint:allow wallclock benchmark measuring window
	for len(out) < 2*len(sets) || !windowFull(start, window, len(out)) {
		perCycle := resetPeakRSS() == nil
		c, err := runSimCycle(sets[len(out)%len(sets)], traced)
		if err != nil {
			return nil, err
		}
		if c.rssMB, err = peakRSSMB("self"); err != nil {
			return nil, err
		}
		if !perCycle && len(out) == 0 {
			fmt.Println("# cannot reset the peak resident set: peak_rss_mb covers the run so far")
		}
		out = append(out, c)
	}
	return out, nil
}

// resetPeakRSS restarts the kernel's count of this process's peak resident
// set (VmHWM), so the next read gives the peak of what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// subSeeds derives the experiment seeds of one invocation from the
// benchmark seed. A run covers several, so its medians vary less with the
// seed than one experiment's cost does.
func subSeeds(seed uint64) []uint64 {
	out := make([]uint64, simInputs)
	for i := range out {
		out[i] = seed*1000 + uint64(i+1)
	}
	return out
}

// simWorkload runs fig4 or city and reports its metrics.
func simWorkload(c config, o *outcome, name string) error {
	build := fig4Experiments
	if name == "city" {
		build = cityExperiments
	}
	var sets [][]simExperiment
	for _, s := range subSeeds(c.seed) {
		sets = append(sets, build(s))
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	want := g.Fig4
	if name == "city" {
		want = g.City
	}
	r, err := runSim(sets, c.window(), c.trace)
	if err != nil {
		return err
	}

	// Correctness: cycles that ran the same inputs must produce the same
	// digests, traced cycles included, and on the default seed the
	// recorded ones.
	ref := map[string]string{}
	for _, cy := range append(append([]*simCycle{}, r.untraced...), r.traced...) {
		o.attempted += len(cy.digests) // one experiment run each
		for k, d := range cy.digests {
			first, seen := ref[k]
			if !seen {
				ref[k] = d
				continue
			}
			o.checkDigest(name+"/"+k, d, first)
		}
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# digest %s/%s %s\n", name, k, ref[k])
		if c.seed == defaultSeed {
			o.checkDigest(name+"/"+k+" vs recorded", ref[k], want[k])
		}
	}

	if !c.trace {
		// Per seed, the median of its cycles; then the mean over seeds, so
		// every seed weighs the same however many cycles it got.
		setup := make([][]float64, len(sets))
		run := make([][]float64, len(sets))
		warm := make([][]float64, len(sets))
		rss := make([][]float64, len(sets))
		for i, cy := range r.untraced {
			k := i % len(sets)
			setup[k] = append(setup[k], cy.setup.Seconds())
			run[k] = append(run[k], cy.run.Seconds())
			rss[k] = append(rss[k], cy.rssMB)
			if i >= len(sets) {
				warm[k] = append(warm[k], cy.wall.Seconds())
			}
		}
		o.setMeanOfMedians("setup_s", setup, "s")
		o.setMeanOfMedians("run_s", run, "s")
		o.setMeanOfMedians("warm_s", warm, "s")
		o.setMeanOfMedians("peak_rss_mb", rss, "MB")
		return nil
	}
	reportSimLayers(o, r)
	return nil
}

// reportSimLayers reports the per-layer metrics of the traced cycles, per
// cycle: medians for the layers timed at the Env boundary, CPU-profile
// seconds for the layers without a public boundary, and counts averaged
// over the traced cycles. Allocation and GC pauses come from the untraced
// cycles.
func reportSimLayers(o *outcome, r *simRun) {
	var callback, send, eval, aggregate, neighbors []float64
	var calls [numLayers]int
	var misses, encounters, refused, ticks int
	var events uint64
	var sends, delivered int64
	var trainTasks float64
	for _, cy := range r.traced {
		var self [numLayers]time.Duration
		for _, ts := range cy.traced {
			for l := 0; l < numLayers; l++ {
				self[l] += ts.clock.self[l]
				calls[l] += ts.clock.calls[l]
			}
			encounters += ts.encounters
			refused += ts.sendRefused
		}
		callback = append(callback, self[layerCallback].Seconds())
		send = append(send, self[layerSend].Seconds())
		eval = append(eval, self[layerEval].Seconds())
		aggregate = append(aggregate, self[layerAggregate].Seconds())
		neighbors = append(neighbors, self[layerNeighbors].Seconds())
		events += cy.events
		sends += cy.sends
		delivered += cy.delivered
		trainTasks += cy.trainTasks
		ticks += cy.ticks
		misses += cy.evalMisses
	}
	n := float64(len(r.traced))
	per := func(x float64) float64 { return x / n }

	o.setMedian("strategy.callback_s", callback, "s")
	o.set("strategy.callbacks", per(float64(calls[layerCallback])), "count")
	o.setMedian("comm.send_s", send, "s")
	o.set("comm.sends", per(float64(sends)), "count")
	o.set("comm.send_refused", per(float64(refused)), "count")
	o.set("comm.delivered_ratio", ratio(float64(delivered), float64(sends)), "ratio")
	o.setMedian("ml.eval_s", eval, "s")
	o.set("ml.evals", per(float64(calls[layerEval])), "count")
	o.set("ml.eval_memo_hit_ratio", ratio(float64(calls[layerEval]-misses), float64(calls[layerEval])), "ratio")
	o.setMedian("ml.aggregate_s", aggregate, "s")
	o.set("ml.aggregates", per(float64(calls[layerAggregate])), "count")
	o.setMedian("mobility.neighbors_s", neighbors, "s")
	o.set("mobility.neighbor_calls", per(float64(calls[layerNeighbors])), "count")
	o.set("mobility.encounters", per(float64(encounters)), "count")
	o.set("mobility.ticks", per(float64(ticks)), "count")
	o.set("sim.events", per(float64(events)), "count")
	o.set("ml.train_tasks", per(trainTasks), "count")

	p := r.profile
	o.set("ml.train_s", p["ml.train"], "s")
	o.set("mobility.tick_s", p["mobility.tick"], "s")
	o.set("sim.dispatch_s", p["sim.dispatch"], "s")
	o.set("dataset.setup_s", p["dataset.setup"], "s")
	o.set("roadnet.setup_s", p["roadnet.setup"], "s")
	o.set("mobility.setup_s", p["mobility.setup"], "s")
	o.set("ml.setup_s", p["ml.setup"], "s")
	o.set("setup.other_s", p["setup.other"], "s")
	o.set("trace.unattributed_s", p["unattributed"], "s")
	o.set("go.alloc_mb", r.allocMB, "MB")
	o.set("go.gc_pause_s", r.gcPause, "s")

	var untracedRun, tracedRun []float64
	for _, cy := range r.untraced {
		untracedRun = append(untracedRun, cy.run.Seconds())
	}
	for _, cy := range r.traced {
		tracedRun = append(tracedRun, cy.run.Seconds())
	}
	o.set("trace.overhead_s", median(tracedRun)-median(untracedRun), "s")
}
