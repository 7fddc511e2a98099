package main

import "fmt"

// metricSpec names a reported metric and its unit. BENCHMARK.json at the
// repository root lists the same metrics; a test keeps the two in step.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, reported for every
// workload. On the campaign workloads run_s is the cold campaign makespan
// and warm_s the makespan of an identical resubmission; on the simulator
// workloads warm_s is the wall time of a repeat of the whole job in the
// same process (the simulator keeps no cache between runs).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"warm_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it: the simulator workloads make no HTTP
// requests, and the campaign workloads execute their runs inside the
// daemon, out of the client's reach.
var perLayer = []metricSpec{
	// Simulator layers (fig4, city).
	{"ml.train_s", "s"},
	{"ml.train_tasks", "count"},
	{"ml.eval_s", "s"},
	{"ml.evals", "count"},
	{"ml.eval_memo_hit_ratio", "ratio"},
	{"ml.aggregate_s", "s"},
	{"ml.aggregates", "count"},
	{"dataset.setup_s", "s"},
	{"roadnet.setup_s", "s"},
	{"mobility.setup_s", "s"},
	{"ml.setup_s", "s"},
	{"setup.other_s", "s"},
	{"mobility.tick_s", "s"},
	{"mobility.ticks", "count"},
	{"mobility.encounters", "count"},
	{"mobility.neighbors_s", "s"},
	{"mobility.neighbor_calls", "count"},
	{"comm.send_s", "s"},
	{"comm.sends", "count"},
	{"comm.send_refused", "count"},
	{"comm.delivered_ratio", "ratio"},
	{"sim.dispatch_s", "s"},
	{"sim.events", "count"},
	{"strategy.callback_s", "s"},
	{"strategy.callbacks", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_pause_s", "s"},
	{"trace.unattributed_s", "s"},
	// Service layers (campaign_local, campaign_cluster).
	{"http.submit_s", "s"},
	{"http.submit_warm_s", "s"},
	{"http.result_s", "s"},
	{"http.requests", "count"},
	{"http.failed", "count"},
	{"campaign.execute_s", "s"},
	{"campaign.runs_executed", "count"},
	{"campaign.runs_cached", "count"},
	{"campaign.service_share", "ratio"},
	{"campaign.queue_records", "count"},
	{"campaign.refs_per_queue_record", "count"},
	{"campaign.journal_records", "count"},
	{"campaign.store_mb", "MB"},
	{"cluster.queue_wait_p50_s", "s"},
	{"cluster.queue_wait_ptop_s", "s"},
	{"cluster.queue_wait_ptop_pct", "pct"},
	{"cluster.start_gate_p50_s", "s"},
	{"cluster.start_gate_ptop_s", "s"},
	{"cluster.start_gate_ptop_pct", "pct"},
	{"cluster.lease_p50_s", "s"},
	{"cluster.lease_ptop_s", "s"},
	{"cluster.lease_ptop_pct", "pct"},
	// Both.
	{"trace.overhead_s", "s"},
}

// conform makes the reported set exactly specs: a metric outside the list
// or with another unit is a bug in the benchmark, and a listed metric the
// workload does not measure is reported as 0.
func (o *outcome) conform(specs []metricSpec) error {
	want := map[string]string{}
	for _, s := range specs {
		want[s.name] = s.unit
	}
	for name, m := range o.metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, want %s", name, m.Unit, unit)
		}
	}
	for _, s := range specs {
		if _, ok := o.metrics[s.name]; !ok {
			o.set(s.name, 0, s.unit)
		}
	}
	return nil
}
