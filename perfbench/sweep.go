package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/experiment"
	"github.com/dnsprivacy/lookaside/internal/resolver"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// The sweep workload: the paper's leak measurement at 100k domains, on the
// sweep's 8 fixed shards, as many of them at once as there are CPUs.
const (
	sweepPopulation = 100_000
	sweepShards     = 8
	// sweepSetups is how many times a run times the sweep's set-up; the
	// sweep itself is the first.
	sweepSetups = 5
	// latencySample is how many domains per worker the per-domain latency
	// sample audits.
	latencySample = 10_000
)

// leakTable is the sweep's deterministic output.
type leakTable struct {
	DLVQueries, Leaked, Case1, Suppressed, Servfails int
}

func (t leakTable) String() string {
	return fmt.Sprintf("dlv_queries=%d leaked=%d case1=%d suppressed=%d servfails=%d",
		t.DLVQueries, t.Leaked, t.Case1, t.Suppressed, t.Servfails)
}

// seed1Table is the leak table the sweep must produce at seed 1.
var seed1Table = leakTable{DLVQueries: 21845, Leaked: 20074, Case1: 1055, Suppressed: 274020, Servfails: 0}

// sweepRun is what one untraced sweep run measured.
type sweepRun struct {
	table      leakTable
	domains    int
	runWall    time.Duration
	perSec     float64
	setups     []float64
	cpu        time.Duration
	rssMB      float64
	lat        []float64 // per-domain audit wall times, ms
	slds       int
	simP50     time.Duration
	simP95     time.Duration
	sampleDoms int
}

// runSweep runs experiment.SweepWithOpts once — the measured sweep — then
// times the sweep's set-up again and audits a per-domain latency sample on
// the last set-up's universe.
func runSweep(seed int64) (*sweepRun, error) {
	cpu0 := selfCPU()
	res, err := experiment.SweepWithOpts(experiment.Params{Seed: seed, Workers: runtime.NumCPU()},
		[]int{sweepPopulation}, experiment.SweepOpts{})
	if err != nil {
		return nil, err
	}
	cpu := selfCPU() - cpu0
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	pt := res.Points[0]
	m := pt.Metrics
	run := &sweepRun{
		table:   leakTable{m.DLVQueries, m.LeakedDomains, m.Case1Domains, m.Suppressed, m.Servfails},
		domains: pt.Workload,
		runWall: pt.Timing.RunWall,
		perSec:  pt.Timing.DomainsPerSec,
		setups:  []float64{(pt.Timing.SetupWall + pt.Timing.WarmWall).Seconds()},
		cpu:     cpu,
		rssMB:   rss,
		slds:    m.MaterializedSLDs,
		simP50:  m.LatencyP50,
		simP95:  m.LatencyP95,
	}
	var st *sweepState
	for len(run.setups) < sweepSetups {
		st, err = setUpSweep(seed, nil)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, st.setupWall().Seconds())
	}
	run.lat, err = st.latencySample()
	if err != nil {
		return nil, err
	}
	run.sampleDoms = len(run.lat)
	return run, nil
}

// sweepState is one set-up of the sweep built from the public APIs the
// sweep itself uses, with each step timed.
type sweepState struct {
	pop                             *dataset.Population
	u                               *universe.Universe
	cfg                             resolver.Config
	population, universe, warm, aud time.Duration
}

func (s *sweepState) setupWall() time.Duration { return s.population + s.universe + s.warm }

// setUpSweep builds the sweep's population, lazy universe and warmed
// shared infrastructure exactly as experiment's sweep point does. span,
// when set, records each set-up step.
func setUpSweep(seed int64, span func(name string, start time.Time)) (*sweepState, error) {
	if span == nil {
		span = func(string, time.Time) {}
	}
	st := &sweepState{}
	t := time.Now()
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: sweepPopulation, Seed: seed})
	if err != nil {
		return nil, err
	}
	st.population = time.Since(t)
	span("setup.population", t)
	t = time.Now()
	u, err := universe.Build(universe.Options{
		Seed: seed, Population: pop, Extra: dataset.SecureDomains(),
		PacketCacheCap: sweepPacketCacheCap,
	})
	if err != nil {
		return nil, err
	}
	st.universe = time.Since(t)
	span("setup.universe", t)
	cfg := u.ResolverConfig(true, true)
	cfg.NSCompletionPercent, cfg.PTRSamplePercent = 0, 0
	cfg.Limits = sweepLimits
	t = time.Now()
	ic, _, err := core.LoadOrWarm(u, cfg, nil, "", nil)
	if err != nil {
		return nil, err
	}
	st.warm = time.Since(t)
	span("setup.warm", t)
	cfg.Infra = ic
	cfg.VerifyCache = dnssec.NewVerifyCache()
	st.pop, st.u, st.cfg = pop, u, cfg
	return st, nil
}

// The sweep's per-worker cache caps and authoritative packet-cache cap,
// mirrored from internal/experiment's sweep point. They bound memory only;
// the traced sweep's leak-table check would catch a divergence that
// changed results.
const sweepPacketCacheCap = 64

var sweepLimits = resolver.CacheLimits{Answers: 1 << 15, Delegations: 1 << 14, Zones: 1 << 14, Servers: 1 << 14}

// auditors builds the sweep's shard auditors over the set-up.
func (s *sweepState) auditors() ([]*core.Auditor, error) {
	t := time.Now()
	out := make([]*core.Auditor, sweepShards)
	for i := range out {
		a, err := core.NewShardAuditor(s.u, core.Options{Resolver: s.cfg})
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	s.aud = time.Since(t)
	return out, nil
}

// latencySample audits the first latencySample domains of each of the
// first NumCPU shards' blocks, one worker per shard as the sweep runs
// them, timing every domain. It returns the per-domain times in ms.
func (s *sweepState) latencySample() ([]float64, error) {
	auds, err := s.auditors()
	if err != nil {
		return nil, err
	}
	workers := min(runtime.NumCPU(), sweepShards)
	lat := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := blockBounds(len(s.pop.Domains), sweepShards, w)
		hi = min(hi, lo+latencySample)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, d := range s.pop.Domains[lo:hi] {
				t := time.Now()
				if err := auds[w].QueryDomain(d.Name); err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], ms(time.Since(t)))
			}
		}(w, lo, hi)
	}
	wg.Wait()
	var all []float64
	for w := range lat {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, lat[w]...)
	}
	return all, nil
}

// blockBounds is the sweep's workload partition: contiguous blocks, sizes
// differing by at most one, the remainder on the leading shards.
func blockBounds(n, c, i int) (lo, hi int) {
	base, rem := n/c, n%c
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// checkLeakTable checks the sweep's output: exact at seed 1, invariants
// at any seed.
func checkLeakTable(res *result, t leakTable, seed int64) {
	if seed == 1 {
		res.check("leak_table.seed1", t == seed1Table, "got %s, want %s", t, seed1Table)
	}
	res.check("leak_table.cases", t.Case1+t.Leaked <= t.DLVQueries,
		"case-1 %d + case-2 %d <= dlv queries %d", t.Case1, t.Leaked, t.DLVQueries)
	res.check("leak_table.servfail", t.Servfails == 0, "%d SERVFAIL stub answers", t.Servfails)
}

// sweepMetrics derives the end-to-end metrics and checks of an untraced
// sweep run.
func sweepMetrics(res *result, run *sweepRun) {
	res.Stamp.SweepParallelism = runtime.NumCPU()
	res.Stamp.SweepShardsFixed = sweepShards
	res.Stamp.SweepPopulation = sweepPopulation
	res.Metrics["setup_s"] = metric{median(run.setups), "s"}
	res.Metrics["p50_ms"] = metric{quantile(run.lat, 0.50), "ms"}
	res.Extra["p90_ms"] = metric{quantile(run.lat, 0.90), "ms"}
	res.Extra["p99_ms"] = metric{quantile(run.lat, 0.99), "ms"}
	res.Metrics["throughput_per_s"] = metric{run.perSec, "1/s"}
	res.Metrics["ok_pct"] = metric{100 * float64(run.domains-run.table.Servfails) / float64(run.domains), "%"}
	res.Metrics["cpu_ms_per_kop"] = metric{ms(run.cpu) / float64(run.domains) * 1000, "ms"}
	res.Metrics["peak_rss_mb"] = metric{run.rssMB, "MB"}
	res.Extra["domains_per_s"] = metric{run.perSec, "1/s"}
	res.Extra["run_s"] = metric{run.runWall.Seconds(), "s"}
	res.Notes = append(res.Notes,
		fmt.Sprintf("leak table: %s slds_built=%d sim_p50=%s sim_p95=%s", run.table, run.slds, run.simP50, run.simP95),
		fmt.Sprintf("p50_ms, p90_ms, p99_ms: per-domain audit wall time over %d domains on a fresh set-up, %d workers", run.sampleDoms, min(runtime.NumCPU(), sweepShards)))
	res.Attempted = run.domains
	res.Failed = run.table.Servfails
	checkLeakTable(res, run.table, res.Seed)
}
