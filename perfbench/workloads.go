package main

import (
	"fmt"
	"math"
	"runtime"

	"github.com/dnsprivacy/lookaside/internal/serve"
)

// runWorkload runs one workload untraced and, when traced is set, again
// with tracing, and fills the result and its checks.
func runWorkload(e *env, workload string, seed int64, seconds int, traced bool) (*result, error) {
	res := newResult(workload, seed, seconds, traced)
	res.Stamp.provenance(e.root)
	switch spec, ok := servingSpecs[workload]; {
	case ok:
		run, err := runServing(e, spec, seed, seconds)
		if err != nil {
			return nil, err
		}
		servingMetrics(res, run)
		if traced {
			tr, err := traceServing(e, spec, seed, seconds)
			if err != nil {
				return nil, err
			}
			servingLayers(res, run, tr)
		}
	case workload == "sweep":
		sw, err := runSweep(seed)
		if err != nil {
			return nil, err
		}
		sweepMetrics(res, sw)
		if traced {
			tr, err := traceSweep(e, seed)
			if err != nil {
				return nil, err
			}
			sweepLayers(res, sw, tr)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want serve-zipf, serve-uniform or sweep)", workload)
	}
	checkContract(res, e.root, traced)
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// servingMetrics derives the end-to-end metrics and the serving checks of
// an untraced serving run.
func servingMetrics(res *result, run *servingRun) {
	res.Stamp.ServerGoMaxProcs = run.workers
	res.Stamp.UDPShards = run.counters.UDPShards
	res.Stamp.ServerFlags = run.flags
	res.Stamp.DriverPorts = run.ports
	res.Stamp.ServingPopulation = run.spec.domains
	res.Steps = run.steps

	f := run.fig
	res.Metrics["setup_s"] = metric{median(run.setups), "s"}
	res.Metrics["p50_ms"] = metric{f.highP50, "ms"}
	res.Metrics["throughput_per_s"] = metric{f.capacity, "1/s"}
	res.Metrics["ok_pct"] = metric{100 * float64(f.attempted-f.failed) / float64(f.attempted), "%"}
	res.Metrics["cpu_ms_per_kop"] = metric{f.cpuMsPerKop, "ms"}
	res.Metrics["peak_rss_mb"] = metric{run.rssMB, "MB"}

	res.Extra["p50_ms.low"] = metric{f.lowP50, "ms"}
	res.Extra["p99_ms.low"] = metric{f.lowP99, "ms"}
	res.Extra["p50_ms.high"] = metric{f.highP50, "ms"}
	res.Extra["p90_ms.high"] = metric{f.highP90, "ms"}
	res.Extra["p99_ms.high"] = metric{f.highP99, "ms"}
	res.Extra["steal_pct.closed"] = metric{f.closedSteal, "%"}

	res.Extra["max_qps"] = metric{run.maxQPS, "q/s"}
	res.Extra["fail_pct"] = metric{100 * float64(f.failed) / float64(f.attempted), "%"}
	if s := run.storm; s != nil {
		res.Extra["goodput_qps"] = metric{float64(s.OK) / s.Seconds, "q/s"}
	}
	if run.cold != nil {
		res.Extra["cold_fail_pct"] = metric{100 * run.cold.failShare(), "%"}
	}
	if run.bound {
		res.Notes = append(res.Notes, "max_qps is driver-bound: the first failing ladder step was invalid")
	}

	// Every reply is checked; wrong answers and SERVFAILs are failed
	// operations. Sheds and timeouts are load outcomes, counted against
	// the SLO instead.
	for _, s := range run.steps {
		res.Attempted += s.Attempted
		res.Failed += s.Bad + s.ServFails
		if s.Bad > 0 {
			res.check("answers."+s.Name, false, "%d wrong answers, first: %s", s.Bad, s.FirstBad)
		}
		if s.ServFails > 0 {
			res.check("servfail."+s.Name, false, "%d SERVFAIL answers", s.ServFails)
		}
	}
	noSOA := 0
	for _, s := range run.steps {
		noSOA += s.NoSOA
	}
	res.finding("nodata_soa", noSOA == 0, "%d AAAA NODATA replies carry no SOA in the authority section", noSOA)
	for k, v := range counterLayers(run.counters, float64(run.counters.UDP.Queries)) {
		res.Extra[k] = v
	}
	res.check("answers", res.Failed == 0, "%d replies checked over %d steps", res.Attempted, len(run.steps))
	res.check("readiness", len(run.setups) == setupSpawns, "%d spawns each answered a probe correctly; set-up %v s", len(run.setups), run.setups)
	// resolved's defaults: workers = GOMAXPROCS, udp-shards = min(GOMAXPROCS, 8).
	res.check("width", run.workers == runtime.GOMAXPROCS(0) && run.counters.UDPShards == uint64(min(run.workers, 8)),
		"resolved runs %d workers and %d UDP shards; GOMAXPROCS here is %d", run.workers, run.counters.UDPShards, runtime.GOMAXPROCS(0))
}

// counterLayers maps a stats-surface delta onto the per-layer counters.
// ops is the query count the per-op ratios are taken over.
func counterLayers(c serve.Snapshot, ops float64) map[string]metric {
	perKop := func(v int) float64 { return 1000 * float64(v) / math.Max(ops, 1) }
	pct := func(num, den uint64) float64 { return 100 * float64(num) / math.Max(float64(den), 1) }
	o := c.Overload
	return map[string]metric{
		"udptransport.queries":            {float64(c.UDP.Queries), "count"},
		"udptransport.responses":          {float64(c.UDP.Responses), "count"},
		"udptransport.malformed":          {float64(c.UDP.Malformed), "count"},
		"udptransport.truncated":          {float64(c.UDP.Truncated), "count"},
		"udptransport.max_inflight":       {float64(c.UDP.MaxInFlight), "count"},
		"overload.admitted":               {float64(o.Admitted), "count"},
		"overload.shed_window":            {float64(o.ShedWindow), "count"},
		"overload.shed_queue":             {float64(o.ShedQueue), "count"},
		"overload.rate_limited":           {float64(o.RateLimited), "count"},
		"overload.useful_pct":             {pct(c.UDP.Responses-o.Sheds(), c.UDP.Queries+o.Sheds()), "%"},
		"resolver.answer_hit_pct":         {100 * c.AnswerCacheHitRate(), "%"},
		"resolver.infra_hit_pct":          {100 * c.InfraHitRate(), "%"},
		"resolver.dlv_per_kop":            {perKop(c.Resolver.DLVQueries), "count"},
		"resolver.dlv_suppressed_per_kop": {perKop(c.Resolver.DLVSuppressed), "count"},
		"resolver.retries":                {float64(c.Resolver.Retries), "count"},
		"resolver.tcp_fallbacks":          {float64(c.Resolver.TCPFallbacks), "count"},
		"resolver.servfails":              {float64(c.UDP.ServFails + c.TCP.ServFails), "count"},
		"authserver.pktcache_hit_pct":     {100 * c.PacketCacheHitRate(), "%"},
	}
}
