package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// servingLayers fills the per-layer metrics of a serving workload from its
// untraced run (stats-surface counters, /proc readings, driver figures)
// and its traced run (spans, taps, runtime metrics, codec benchmarks).
func servingLayers(res *result, run *servingRun, tr *servingTrace) {
	L := res.Layers
	for k, v := range counterLayers(run.counters, float64(run.counters.UDP.Queries)) {
		L[k] = v
	}
	for k, v := range tr.taps.layers(tr.answered) {
		L[k] = v
	}
	for k, v := range runtimeLayers(tr.rt0, tr.rt1, tr.sent) {
		L[k] = v
	}
	invalid, noSOA := 0, 0
	for _, s := range run.steps {
		if !s.Valid {
			invalid++
		}
		noSOA += s.NoSOA
	}
	coldFail := 0.0
	if run.cold != nil {
		coldFail = 100 * run.cold.failShare()
	}
	L["driver.cpu_pct"] = metric{run.fig.highDriverCPU, "%"}
	L["driver.invalid_steps"] = metric{float64(invalid), "count"}
	L["resolved.busy_pct"] = metric{run.fig.highBusy, "%"}
	L["overload.cold_fail_pct"] = metric{coldFail, "%"}
	L["answers.nodata_without_soa"] = metric{float64(noSOA), "count"}
	L["serve.busy_pct"] = metric{tr.busyPct, "%"}
	L["universe.slds_built"] = metric{float64(tr.slds), "count"}
	L["core.shard_imbalance_pct"] = metric{0, "%"}
	L["capture.case1"] = metric{0, "count"}
	L["capture.case2"] = metric{0, "count"}
	L["setup.population_s"] = metric{tr.setup["setup.population"], "s"}
	L["setup.universe_s"] = metric{tr.setup["setup.universe"], "s"}
	L["setup.warm_s"] = metric{tr.setup["setup.warm"], "s"}
	L["setup.ready_s"] = metric{tr.setup["setup.listen"] + tr.setup["setup.first_answer"], "s"}
	opLayers(L, tr.opLat, tr.handle)
	codecLayers(L, tr.decodeNS, tr.encodeNS, tr.allocs, tr.admitNS)
	total := tr.totalUS
	L["ledger.driver_pct"] = metric{100 * tr.waitUS / max(total, 1e-9), "%"}
	L["ledger.udptransport_pct"] = metric{100 * tr.transportUS / max(total, 1e-9), "%"}
	L["ledger.serve_pct"] = metric{100 * tr.handleUS / max(total, 1e-9), "%"}
	L["ledger.closure_pct"] = metric{tr.closure, "%"}
	res.Ledger = tr.ledger
	res.check("ledger.closure", math.Abs(tr.closure-100) <= 10,
		"per-layer self times sum to %.1f%% of the traced per-query time", tr.closure)

	o := run.counters.Overload
	res.Extra["overload.queue_p50_us"] = metric{float64(o.QueueDelayP50us), "us"}
	res.Extra["overload.queue_p99_us"] = metric{float64(o.QueueDelayP99us), "us"}

	// The traced run repeats the untraced one in this process; its
	// end-to-end figures, against the untraced ones, are the tracing
	// overhead. setup, CPU and memory also include hosting the stack
	// in-process, which is part of what they compare.
	traced := newResult(res.Workload, res.Seed, res.Seconds, true)
	servingMetrics(traced, tr.run)
	traced.Metrics["setup_s"] = metric{tr.setupAll, "s"}
	overheadLayers(res, traced.Metrics)
	res.Notes = append(res.Notes, fmt.Sprintf("traced run: %d spans; %d answered queries within the SLO joined to handler spans, %d slower ones left out of the ledger",
		tr.spanCount, len(tr.handle), tr.stalled))
}

// sweepLayers fills the per-layer metrics of the sweep from its traced
// rerun, and checks that the rerun reproduced the leak table.
func sweepLayers(res *result, run *sweepRun, tr *sweepTrace) {
	L := res.Layers
	ops := float64(len(tr.domLat))
	res.check("trace.leak_table", tr.table == run.table, "traced %s, untraced %s", tr.table, run.table)
	for k, v := range counterLayers(tr.counters, ops) {
		L[k] = v
	}
	for k, v := range tr.taps.layers(ops) {
		L[k] = v
	}
	for k, v := range runtimeLayers(tr.rt0, tr.rt1, ops) {
		L[k] = v
	}
	// The sweep has no transport, admission control, serving pool or
	// driver schedule: those layers do no work and report zero.
	for _, k := range []string{"udptransport.queries", "udptransport.responses", "udptransport.malformed",
		"udptransport.truncated", "udptransport.max_inflight", "overload.admitted", "overload.shed_window",
		"overload.shed_queue", "overload.rate_limited", "driver.invalid_steps", "answers.nodata_without_soa"} {
		L[k] = metric{0, "count"}
	}
	for _, k := range []string{"overload.useful_pct", "overload.cold_fail_pct", "serve.busy_pct", "driver.cpu_pct",
		"ledger.driver_pct", "ledger.udptransport_pct", "ledger.serve_pct"} {
		L[k] = metric{0, "%"}
	}
	busy := 0.0
	for _, s := range tr.shardS {
		busy += s
	}
	workers := float64(min(runtime.NumCPU(), sweepShards))
	L["resolved.busy_pct"] = metric{100 * tr.cpu.Seconds() / (tr.runWall.Seconds() * float64(runtime.NumCPU())), "%"}
	// Closure: the per-domain spans against the workers' wall time.
	sum := 0.0
	for _, x := range tr.domLat {
		sum += x
	}
	L["ledger.closure_pct"] = metric{100 * sum / 1e6 / (tr.runWall.Seconds() * workers), "%"}
	L["universe.slds_built"] = metric{float64(tr.slds), "count"}
	sorted := append([]float64(nil), tr.shardS...)
	sort.Float64s(sorted)
	mean := busy / float64(len(sorted))
	L["core.shard_imbalance_pct"] = metric{100 * (sorted[len(sorted)-1] - sorted[0]) / max(mean, 1e-9), "%"}
	L["capture.case1"] = metric{float64(tr.table.Case1), "count"}
	L["capture.case2"] = metric{float64(tr.table.Leaked), "count"}
	L["setup.population_s"] = metric{tr.st.population.Seconds(), "s"}
	L["setup.universe_s"] = metric{tr.st.universe.Seconds(), "s"}
	L["setup.warm_s"] = metric{tr.st.warm.Seconds(), "s"}
	L["setup.ready_s"] = metric{tr.st.aud.Seconds(), "s"}
	opLayers(L, tr.domLat, tr.domLat)
	codecLayers(L, tr.decodeNS, tr.encodeNS, tr.allocs, tr.admitNS)
	res.Extra["core.shard_s.max"] = metric{sorted[len(sorted)-1], "s"}
	res.Extra["core.shard_s.min"] = metric{sorted[0], "s"}
	p50 := quantile(tr.domLat, 0.5)
	res.Ledger = []ledgerRow{
		{Layer: "core.Auditor.QueryDomain", MeanUS: sum / ops, P50US: p50},
		{Layer: "total (one audited domain)", MeanUS: sum / ops, P50US: p50},
	}

	traced := map[string]metric{
		"setup_s":          {tr.st.setupWall().Seconds(), "s"},
		"p50_ms":           {p50 / 1e3, "ms"},
		"throughput_per_s": {ops / tr.runWall.Seconds(), "1/s"},
		"ok_pct":           {100 * float64(tr.stubQs-tr.table.Servfails) / float64(tr.stubQs), "%"},
		"cpu_ms_per_kop":   {ms(tr.cpu) / ops * 1000, "ms"},
		"peak_rss_mb":      {tr.rssMB, "MB"},
	}
	overheadLayers(res, traced)
}

// opLayers reports the traced per-op time and the time in the call that
// hands an op to the resolver stack (µs): serve.Service.HandleQuery when
// serving, core.Auditor.QueryDomain in the sweep.
func opLayers(L map[string]metric, op, handle []float64) {
	L["op_us.p50"] = metric{quantile(append([]float64(nil), op...), 0.5), "us"}
	L["op_us.p99"] = metric{quantile(append([]float64(nil), op...), 0.99), "us"}
	L["handle_us.p50"] = metric{quantile(append([]float64(nil), handle...), 0.5), "us"}
	L["handle_us.p99"] = metric{quantile(append([]float64(nil), handle...), 0.99), "us"}
}

func codecLayers(L map[string]metric, dec, enc, allocs, admit float64) {
	L["dns.decode_ns"] = metric{dec, "ns"}
	L["dns.encode_ns"] = metric{enc, "ns"}
	L["dns.allocs_per_msg"] = metric{allocs, "count"}
	L["overload.admit_ns"] = metric{admit, "ns"}
}

// overheadLayers reports, for every end-to-end metric, how far the traced
// run's value lies from the untraced run's, in percent.
func overheadLayers(res *result, traced map[string]metric) {
	for k, u := range res.Metrics {
		t := traced[k]
		res.Layers["trace.overhead_pct."+k] = metric{100 * (t.Value - u.Value) / max(math.Abs(u.Value), 1e-9), "%"}
	}
}
