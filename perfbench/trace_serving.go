package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/serve"
	"github.com/dnsprivacy/lookaside/internal/udptransport"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// servingTrace is what the traced serving run measured: the same steps as
// the untraced run, against the serving stack hosted in this process and
// wired as cmd/resolved wires it, with every query's spans.
type servingTrace struct {
	run      *servingRun
	setup    map[string]float64 // seconds per set-up step
	setupAll float64
	ledger   []ledgerRow
	closure  float64 // Σ ledger self times ÷ per-query time, %
	// Mean self times per answered query within the SLO, µs; stalled
	// counts the answered queries slower than the SLO, left out of them.
	waitUS, transportUS, handleUS, totalUS float64
	stalled                                int
	opLat                                  []float64
	handle                                 []float64
	busyPct                                float64
	taps                                   *tapCounts
	// answered and sent count the queries of every step.
	answered, sent float64
	rt0, rt1       runtimeSample
	slds           int
	decodeNS       float64
	encodeNS       float64
	allocs         float64
	admitNS        float64
	spanCount      int
}

// maxRecorded bounds the packets kept for the codec benchmarks.
const maxRecorded = 4000

// traceServing runs a serving workload against an in-process stack with
// tracing on. Spans go to <out>/<workload>-spans.jsonl.
func traceServing(e *env, spec servingSpec, seed int64, seconds int) (*servingTrace, error) {
	log := newSpanLog()
	tr := &servingTrace{setup: map[string]float64{}, taps: &tapCounts{}}
	timed := func(name string, t time.Time) {
		tr.setup[name] = time.Since(t).Seconds()
		log.add(name, "setup", "", t, time.Now())
	}
	t0 := time.Now()
	t := t0
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: spec.domains, Seed: 1})
	if err != nil {
		return nil, err
	}
	timed("setup.population", t)
	t = time.Now()
	u, err := universe.Build(universe.Options{Seed: 1, Population: pop, Extra: dataset.SecureDomains()})
	if err != nil {
		return nil, err
	}
	timed("setup.universe", t)
	t = time.Now()
	workers := e.nsock
	gate := overload.New(overload.Config{MaxInFlight: 256, Exec: workers, QueueTarget: 20 * time.Millisecond})
	svc, err := serve.Build(u, u.ResolverConfig(true, true), serve.Options{Workers: workers, SharedInfra: true, Overload: gate})
	if err != nil {
		gate.Close()
		return nil, err
	}
	defer svc.Close()
	timed("setup.warm", t)
	t = time.Now()
	h := &tracedHandler{next: svc}
	srv, err := udptransport.ListenShards(e.server.String(), h, min(workers, 8))
	if err != nil {
		return nil, err
	}
	tcp, err := udptransport.ListenTCP(srv.AddrPort().String(), h)
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	srv.SetGate(gate)
	tcp.SetGate(gate)
	svc.AttachTransports(srv, tcp)
	udpDone, tcpDone := make(chan error, 1), make(chan error, 1)
	go func() { udpDone <- srv.Serve() }()
	go func() { tcpDone <- tcp.Serve() }()
	defer func() {
		_ = srv.Shutdown(2 * time.Second)
		_ = tcp.Shutdown(2 * time.Second)
		<-udpDone
		<-tcpDone
	}()
	timed("setup.listen", t)

	names := make([]dns.Name, len(pop.Domains))
	for i := range pop.Domains {
		names[i] = pop.Domains[i].Name
	}
	d, err := newDriver(e.server, e.firstPort, e.nsock, names)
	if err != nil {
		return nil, err
	}
	defer d.close()
	t = time.Now()
	if _, err := awaitReady(d, names[0], t, 60*time.Second, nil); err != nil {
		return nil, err
	}
	timed("setup.first_answer", t)
	tr.setupAll = time.Since(t0).Seconds()
	h.take() // forget the probe

	var queries, msgs [][]byte
	var recMu sync.Mutex // the driver's lanes reply concurrently
	replies := 0
	d.onReply = func(query, reply []byte, o *outcome) {
		recMu.Lock()
		defer recMu.Unlock()
		// Every 8th answer, so the sample spans the run.
		if replies++; o.status == outcomeOK && len(queries) < maxRecorded && replies%8 == 0 {
			queries = append(queries, query)
			msgs = append(msgs, query, append([]byte(nil), reply...))
		}
	}
	u.Net.AddTap(tr.taps.tap)
	run := &servingRun{spec: spec, ports: d.ports, flags: serverFlags(e.server, spec.domains), workers: workers}
	probe := serverProbe{
		cpu:     func() (time.Duration, error) { return selfCPU(), nil },
		rss:     func() (float64, error) { return peakRSSMB(os.Getpid()) },
		workers: workers,
	}
	var waits, transports, handles, totals []float64
	matched, answered, sent, stalled := 0, 0, 0, 0
	var okTotals []float64
	var busyHigh, wallHigh time.Duration
	onStep := func(st plannedStep, qs []query, out []outcome) {
		calls := h.take()
		for i := range out {
			if out[i].status != outcomeUnsent {
				sent++
			}
			if out[i].status == outcomeOK {
				answered++
			}
		}
		if st.kind != stepFixed {
			return
		}
		byKey := make(map[string][]handleSpan, len(calls))
		for _, c := range calls {
			k := queryID(c.id, c.name)
			byKey[k] = append(byKey[k], c)
		}
		if st.name == "high" {
			for _, c := range calls {
				busyHigh += c.end.Sub(c.start)
			}
			wallHigh += st.dur
		}
		for i := range out {
			o := &out[i]
			if o.status != outcomeOK {
				continue
			}
			id := d.lastIDs[i]
			k := queryID(id, names[qs[i].name])
			dueAt := d.lastStart.Add(qs[i].due)
			sentAt := d.lastStart.Add(o.sent)
			recvAt := d.lastStart.Add(o.recv)
			total := float64(recvAt.Sub(dueAt)) / 1e3
			tr.opLat = append(tr.opLat, total)
			log.add("query", "", k, dueAt, recvAt)
			log.add("driver.wait", "query", k, dueAt, sentAt)
			log.add("udp.roundtrip", "query", k, sentAt, recvAt)
			var hs *handleSpan
			for j := range byKey[k] {
				c := &byKey[k][j]
				if !c.start.Before(sentAt) && !c.end.After(recvAt) {
					hs = c
					break
				}
			}
			if total > float64(sloP99)/1e3 {
				// A host stall, not the stack: it would swamp the means.
				stalled++
				continue
			}
			okTotals = append(okTotals, total)
			if hs == nil {
				continue
			}
			matched++
			log.add("serve.handle", "udp.roundtrip", k, hs.start, hs.end)
			handle := float64(hs.end.Sub(hs.start)) / 1e3
			waits = append(waits, float64(sentAt.Sub(dueAt))/1e3)
			transports = append(transports, float64(recvAt.Sub(sentAt))/1e3-handle)
			handles = append(handles, handle)
			totals = append(totals, total)
		}
	}
	tr.rt0 = readRuntime()
	if err := run.runSteps(d, seed, seconds, probe, onStep); err != nil {
		return nil, err
	}
	tr.rt1 = readRuntime()
	tr.busyPct = 100 * float64(busyHigh) / (float64(wallHigh) * float64(workers))
	tr.sent = float64(sent)
	tr.run = run
	tr.answered = float64(answered)
	tr.slds = u.CachedSLDZones()
	if matched == 0 {
		return nil, errors.New("traced run matched no handler span to a query")
	}
	tr.handle = handles
	w, wp := meanP50(waits)
	tp, tpp := meanP50(transports)
	hd, hdp := meanP50(handles)
	tot, totp := meanP50(totals)
	tr.waitUS, tr.transportUS, tr.handleUS, tr.totalUS = w, tp, hd, tot
	tr.waitUS, tr.transportUS, tr.handleUS, tr.totalUS = w, tp, hd, tot
	tr.ledger = []ledgerRow{
		{Layer: "driver (due → sent)", MeanUS: w, P50US: wp},
		{Layer: "udptransport + kernel (round trip − handle)", MeanUS: tp, P50US: tpp},
		{Layer: "serve.Service.HandleQuery (pool + resolver)", MeanUS: hd, P50US: hdp},
		{Layer: "total (due → reply)", MeanUS: tot, P50US: totp},
	}
	// Self times close against the per-query time of every answered query
	// within the SLO, including any whose handler span did not join.
	allMean, _ := meanP50(okTotals)
	tr.closure = 100 * (w + tp + hd) / max(allMean, 1e-9)
	tr.stalled = stalled
	tr.spanCount = len(log.spans)

	if tr.decodeNS, tr.encodeNS, tr.allocs, err = codecCost(msgs); err != nil {
		return nil, fmt.Errorf("codec benchmark: %w", err)
	}
	if tr.admitNS, err = admitCost(queries, workers); err != nil {
		return nil, fmt.Errorf("admission benchmark: %w", err)
	}
	total := tr.ledger[3]
	tr.ledger = append(tr.ledger[:3],
		ledgerRow{Layer: "dns decode query + encode answer", MeanUS: (tr.decodeNS + tr.encodeNS) / 1e3, Estimated: true},
		ledgerRow{Layer: "overload AdmitFast + Acquire/Release", MeanUS: tr.admitNS / 1e3, Estimated: true},
		total)
	if err := log.write(filepath.Join(e.outDir, spec.name+"-spans.jsonl")); err != nil {
		return nil, err
	}
	return tr, nil
}
