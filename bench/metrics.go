package main

import "strings"

// suiteSeconds is how long one pass measures when -seconds is not given.
const suiteSeconds = 6

// metricDef names one metric, mirrors its BENCHMARK.json entry and says on
// which workloads it is native. On is a space-separated list of workload
// names or of the classes "sweeps" (the five simulator workloads), "all" and
// "kernel" (a direct call, the same on every workload).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: the share by which the median may worsen
	On     string
}

func (m metricDef) appliesTo(workload string) bool {
	for _, on := range strings.Fields(m.On) {
		switch {
		case on == "all", on == workload:
			return true
		case on == "sweeps" && findSweep(workload) != nil:
			return true
		}
	}
	return false
}

// deterministicOn reports whether the metric must repeat exactly between two
// runs at the same seed: counts and virtual times under the simulator's one
// seeded scheduler, and graph_check's verdict share. Live rounds run on real
// threads and timers; nothing there repeats.
func (m metricDef) deterministicOn(workload string) bool {
	if workload == "live_cupft" {
		return false
	}
	switch m.Name {
	case "virt_decide_ms_p50", "virt_decide_ms_p90", "msgs_per_cell", "kib_per_cell", "consensus_share":
		return true
	}
	return false
}

// endToEndNames is BENCHMARK.json's end_to_end list. The benchmark contract
// wants every workload to report every one of them, never as 0, so each has
// a reading on every workload; On lists the workloads where that reading is
// the metric's own definition (the suite prints only those), and README.md
// states the reading used elsewhere. Two end-to-end metrics are therefore not
// in this list: failed_share, which is 0 today and travels as the result's
// failed/attempted pair, and boot_ms_p50, which only a live cluster has (the
// suite prints both; the traced pass reports boot as netrt.boot_ms_p50).
//
// The bounds are the widest the contract allows on everything a clock or a
// live cluster touches: on the shared 2-vCPU machine this was written on, the
// neighbours' memory traffic slows the same binary on the same inputs by a
// third for minutes at a time (README, "Reading past the machine"). A live
// round's message count follows its decide time, so it is no steadier. Exact
// comparisons of the simulator's counts are -selfcheck's job; paired runs
// (README, "Comparing two commits") resolve what the bounds cannot.
var endToEndNames = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: "all"},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: "all"},
	{Name: "decide_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: "live_cupft"},
	{Name: "decide_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: "live_cupft"},
	{Name: "virt_decide_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: "sweeps"},
	{Name: "virt_decide_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: "sweeps"},
	{Name: "msgs_per_cell", Unit: "count", Better: "lower", Bound: 0.25, On: "sweeps live_cupft"},
	{Name: "kib_per_cell", Unit: "KiB", Better: "lower", Bound: 0.25, On: "sweeps live_cupft"},
	{Name: "consensus_share", Unit: "share", Better: "higher", Bound: 0.1, On: "sweeps live_cupft"},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25, On: "all"},
}

// perLayerNames is BENCHMARK.json's per_layer list. A metric whose layer does
// no work on a workload reads 0 there.
var perLayerNames = []metricDef{
	{Name: "sim.events_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "sim.dispatch_ns_per_event", Unit: "ns", Better: "lower", On: "sweeps"},
	{Name: "sim.dispatch_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "sim.send_ns_per_msg", Unit: "ns", Better: "lower", On: "sweeps"},
	{Name: "sim.send_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "sim.settimer_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "discovery.msgs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "discovery.kib_per_cell", Unit: "KiB", Better: "lower", On: "sweeps"},
	{Name: "discovery.records_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "discovery.self_ns_per_msg", Unit: "ns", Better: "lower", On: "sweeps"},
	{Name: "discovery.share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "discovery.fresh_ratio", Unit: "share", Better: "higher", On: "sweeps live_cupft"},
	{Name: "pbft.msgs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "pbft.view_change_msgs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "pbft.self_ns_per_msg", Unit: "ns", Better: "lower", On: "sweeps"},
	{Name: "pbft.share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "core.poll_msgs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "core.poll_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "cryptox.verify_sigs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "cryptox.verify_ns_per_sig", Unit: "ns", Better: "lower", On: "sweeps"},
	{Name: "cryptox.batch_mean", Unit: "count", Better: "higher", On: "sweeps"},
	{Name: "cryptox.signs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "cryptox.sign_us_mean", Unit: "us", Better: "lower", On: "sweeps"},
	{Name: "cryptox.share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "kosr.searches_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "kosr.search_us_mean", Unit: "us", Better: "lower", On: "sweeps"},
	{Name: "kosr.found_ratio", Unit: "share", Better: "higher", On: "sweeps"},
	{Name: "kosr.share", Unit: "share", Better: "lower", On: "sweeps graph_check"},
	{Name: "scenario.setup_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "scenario.compile_ms_per_key", Unit: "ms", Better: "lower", On: "sweeps"},
	{Name: "scenario.allocs_per_cell", Unit: "count", Better: "lower", On: "sweeps"},
	{Name: "matrix.overhead_share", Unit: "share", Better: "lower", On: "sweeps"},
	{Name: "matrix.par_efficiency", Unit: "share", Better: "higher", On: "sweep_par"},
	{Name: "matrix.fabric_efficiency", Unit: "share", Better: "higher", On: "sweep_fabric"},
	{Name: "matrix.fabric_tasks", Unit: "count", Better: "lower", On: "sweep_fabric"},
	{Name: "matrix.fabric_recoveries", Unit: "count", Better: "lower", On: "sweep_fabric"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", On: "all"},
	{Name: "trace.clock_ns", Unit: "ns", Better: "lower", On: "sweeps live_cupft"},

	{Name: "graph.build_us_mean", Unit: "us", Better: "lower", On: "graph_check"},
	{Name: "graph.check_bftcup_us_mean", Unit: "us", Better: "lower", On: "graph_check"},
	{Name: "kosr.check_bftcupft_ms_mean", Unit: "ms", Better: "lower", On: "graph_check"},
	{Name: "kosr.check_extended_ms_mean", Unit: "ms", Better: "lower", On: "graph_check"},
	{Name: "kosr.worst_placement_us_mean", Unit: "us", Better: "lower", On: "graph_check"},
	{Name: "kosr.replay_ms_mean", Unit: "ms", Better: "lower", On: "graph_check"},

	{Name: "netrt.msgs_per_round", Unit: "count", Better: "lower", On: "live_cupft"},
	{Name: "netrt.kib_per_round", Unit: "KiB", Better: "lower", On: "live_cupft"},
	{Name: "netrt.newcluster_ms_p50", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "netrt.stop_ms_p50", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "netrt.boot_ms_p50", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "netrt.send_ns_per_msg", Unit: "ns", Better: "lower", On: "live_cupft"},
	{Name: "discovery.busy_ms_per_round", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "pbft.busy_ms_per_round", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "cryptox.busy_ms_per_round", Unit: "ms", Better: "lower", On: "live_cupft"},
	{Name: "kosr.busy_ms_per_round", Unit: "ms", Better: "lower", On: "live_cupft"},

	{Name: "sim.ring64_ns_per_event", Unit: "ns", Better: "lower", On: "kernel"},
	{Name: "sim.ring64_allocs_per_op", Unit: "count", Better: "lower", On: "kernel"},
	{Name: "kosr.core_replay24_ms", Unit: "ms", Better: "lower", On: "kernel"},
	{Name: "kosr.sink_replay24_ms", Unit: "ms", Better: "lower", On: "kernel"},
	{Name: "cryptox.keyring8_ms", Unit: "ms", Better: "lower", On: "kernel"},
	{Name: "cryptox.verify_cold_us", Unit: "us", Better: "lower", On: "kernel"},
	{Name: "cryptox.verify_warm_ns", Unit: "ns", Better: "lower", On: "kernel"},
	{Name: "discovery.encode_setpds_ns_per_record", Unit: "ns", Better: "lower", On: "kernel"},
	{Name: "wire.setpds_walk_ns_per_record", Unit: "ns", Better: "lower", On: "kernel"},
	{Name: "netrt.frame_roundtrip_ns", Unit: "ns", Better: "lower", On: "kernel"},
}

// unitOf maps every metric a run can record to its unit: the two tables, plus
// boot_ms_p50, which the untraced live pass records for the suite alone.
var unitOf = func() map[string]string {
	units := map[string]string{"boot_ms_p50": "ms"}
	for _, m := range endToEndNames {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayerNames {
		units[m.Name] = m.Unit
	}
	return units
}()
