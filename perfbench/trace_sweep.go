package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/core"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// sweepTrace is what the traced sweep measured. It rebuilds the sweep from
// the public APIs experiment's sweep point uses, so that it can time each
// domain and each shard; its leak table must equal the untraced run's.
type sweepTrace struct {
	table    leakTable
	st       *sweepState
	domLat   []float64 // per-domain audit wall times, µs
	shardS   []float64
	runWall  time.Duration
	cpu      time.Duration
	counters serve.Snapshot
	taps     *tapCounts
	rt0, rt1 runtimeSample
	slds     int
	stubQs   int
	decodeNS float64
	encodeNS float64
	allocs   float64
	admitNS  float64
	rssMB    float64
}

// codecSample is how many domains' stub queries and answers the traced
// sweep records for the codec benchmarks.
const codecSample = 2000

func traceSweep(e *env, seed int64) (*sweepTrace, error) {
	log := newSpanLog()
	tr := &sweepTrace{taps: &tapCounts{}}
	st, err := setUpSweep(seed, func(name string, t time.Time) { log.add(name, "setup", "", t, time.Now()) })
	if err != nil {
		return nil, err
	}
	tr.st = st
	t := time.Now()
	auds, err := st.auditors()
	if err != nil {
		return nil, err
	}
	log.add("setup.ready", "setup", "", t, time.Now())
	st.u.Net.AddTap(tr.taps.tap)
	hits0, miss0 := authserver.CacheTotals()

	doms := st.pop.Domains
	lat := make([][]float64, sweepShards)
	shardS := make([]float64, sweepShards)
	errs := make([]error, sweepShards)
	var next atomic.Int64
	var wg sync.WaitGroup
	tr.rt0 = readRuntime()
	start := time.Now()
	for w := 0; w < min(runtime.NumCPU(), sweepShards); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= sweepShards {
					return
				}
				lo, hi := blockBounds(len(doms), sweepShards, i)
				shardStart := time.Now()
				lat[i] = make([]float64, 0, hi-lo)
				for _, d := range doms[lo:hi] {
					t := time.Now()
					if err := auds[i].QueryDomain(d.Name); err != nil {
						errs[i] = err
						return
					}
					end := time.Now()
					lat[i] = append(lat[i], float64(end.Sub(t))/1e3)
					log.add("core.QueryDomain", "core.shard", string(d.Name), t, end)
				}
				shardS[i] = time.Since(shardStart).Seconds()
				log.add("core.shard", "sweep", fmt.Sprintf("shard%d", i), shardStart, time.Now())
			}
		}()
	}
	wg.Wait()
	tr.runWall = time.Since(start)
	tr.rt1 = readRuntime()
	tr.cpu = tr.rt1.cpu - tr.rt0.cpu
	log.add("sweep", "", "", start, time.Now())
	for i := range errs {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %d: %w", i, errs[i])
		}
		tr.domLat = append(tr.domLat, lat[i]...)
	}
	tr.shardS = shardS
	tr.rssMB, err = peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	// Merge the shards exactly as the sweep does: a sharded auditor over
	// the same universe, each shard restored from the auditor that ran it.
	merged, err := core.NewShardedAuditor(st.u, core.ShardedOptions{Options: core.Options{Resolver: st.cfg}, Workers: sweepShards})
	if err != nil {
		return nil, err
	}
	for i, a := range auds {
		if err := merged.RestoreShardState(i, a.ExportState()); err != nil {
			return nil, err
		}
	}
	rep := merged.Report()
	tr.table = leakTable{rep.Capture.DLVQueries, rep.Capture.Case2Domains, rep.Capture.Case1Domains,
		rep.ResolverStats.DLVSuppressed, rep.Servfails}
	tr.stubQs = rep.StubQueries
	hits, misses := authserver.CacheTotals()
	tr.counters = serve.Snapshot{Resolver: rep.ResolverStats, PacketCacheHits: hits - hits0, PacketCacheMisses: misses - miss0}
	tr.slds = st.u.CachedSLDZones()

	// Record stub queries and the answers the first shard's resolver gives
	// them, for the codec and admission benchmarks.
	var queries, msgs [][]byte
	r := auds[0].Resolver()
	for i, d := range doms[:codecSample] {
		qt := dns.TypeA
		if i%2 == 1 {
			qt = dns.TypeAAAA
		}
		q := dns.NewQuery(uint16(i), d.Name, qt, true)
		qw, err := q.Encode()
		if err != nil {
			return nil, err
		}
		resp, err := r.HandleQuery(q, universe.StubAddr)
		if err != nil {
			return nil, err
		}
		rw, err := resp.Encode()
		if err != nil {
			return nil, err
		}
		queries = append(queries, qw)
		msgs = append(msgs, qw, rw)
	}
	if tr.decodeNS, tr.encodeNS, tr.allocs, err = codecCost(msgs); err != nil {
		return nil, err
	}
	if tr.admitNS, err = admitCost(queries, runtime.NumCPU()); err != nil {
		return nil, err
	}
	if err := log.write(filepath.Join(e.outDir, "sweep-spans.jsonl")); err != nil {
		return nil, err
	}
	return tr, nil
}
