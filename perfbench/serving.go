package main

import (
	"fmt"
	"math"
	"net/netip"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/serve"
)

// servingSpec is one serving workload. Rates are frozen: they were
// calibrated once against resolved on a 2-core host (README.md) and must
// not change between the two commits of a comparison.
type servingSpec struct {
	name    string
	domains int
	uniform bool
	// low and high are the fixed rates latency is reported at; ladder is
	// the geometric rate ladder max_qps is searched on; storm, when set,
	// is an overload step at about twice capacity.
	low, high float64
	ladder    []float64
	storm     float64
	// closedUp bounds the rate the closed-loop capacity step can reach;
	// its schedule holds that many queries per second.
	closedUp float64
	// warm runs an untimed stretch at the low rate first, so Zipf replay
	// measures warm caches; cold instead times that first stretch as the
	// cold phase.
	warm, cold bool
}

var servingSpecs = map[string]servingSpec{
	"serve-zipf": {
		name: "serve-zipf", domains: 100_000,
		low: 3000, high: 8000,
		ladder:   geometric(8000, 1.25, 4),
		closedUp: 150000,
		warm:     true,
	},
	"serve-uniform": {
		name: "serve-uniform", domains: 1_000_000, uniform: true,
		low: 1000, high: 2500,
		ladder:   geometric(2500, 1.25, 4),
		closedUp: 40000,
		storm:    8000,
		cold:     true,
	},
}

// closedWindow is how many queries each driver socket keeps outstanding
// in the closed-loop capacity step: enough to keep every resolver instance
// busy, few enough that none waits near the admission queue deadline.
const closedWindow = 16

// geometric returns n rates starting at first*ratio, each ratio times the
// one before, rounded to 100 q/s.
func geometric(first, ratio float64, n int) []float64 {
	out := make([]float64, n)
	r := first
	for i := range out {
		r *= ratio
		out[i] = math.Round(r/100) * 100
	}
	return out
}

// The service-level objective a step must meet.
const (
	sloP99       = 10 * time.Millisecond
	sloFailShare = 0.001
)

// serverFlags are the only resolved flags the benchmark sets; everything
// else stays at its default (workers = GOMAXPROCS, udp-shards =
// min(GOMAXPROCS, 8), DLV and the root anchor on, no per-client limit).
func serverFlags(addr netip.AddrPort, domains int) []string {
	return []string{"-listen", addr.String(), "-domains", strconv.Itoa(domains), "-max-inflight", "256"}
}

// stepResult is one constant-rate step of a serving run.
type stepResult struct {
	Name      string  `json:"name"`
	Round     int     `json:"round,omitempty"`
	Rate      float64 `json:"rate_qps"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	OK        int     `json:"ok"`
	Timeouts  int     `json:"timeouts"`
	Refused   int     `json:"refused"`
	ServFails int     `json:"servfails"`
	Bad       int     `json:"bad_answers"`
	NoSOA     int     `json:"nodata_without_soa"`
	FirstBad  string  `json:"first_bad,omitempty"`
	// Latency is measured from each query's due time; a failed query
	// counts as the timeout.
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
	// WinP99ms is the median over the step's 100 ms windows of each
	// window's p99: a stall of the host that hits a few windows moves
	// P99ms but not this.
	WinP99ms float64 `json:"win_p99_ms"`
	// Lateness is how long after its due time the driver sent a query.
	LateP99ms float64 `json:"late_p99_ms"`
	LateMaxms float64 `json:"late_max_ms"`
	// Valid is false when the driver itself ran late: the step then says
	// nothing about the server and ends the ladder.
	Valid    bool `json:"valid"`
	MeetsSLO bool `json:"meets_slo"`
	// ServerCPUms is the server's CPU over the step; BusyPct is that over
	// wall × server GOMAXPROCS. DriverCPUPct is this process's CPU over
	// wall, in percent of one core.
	ServerCPUms  float64 `json:"server_cpu_ms"`
	BusyPct      float64 `json:"server_busy_pct"`
	DriverCPUPct float64 `json:"driver_cpu_pct"`
	// StealPct is the share of the host's CPU time the hypervisor gave to
	// other guests during the step.
	StealPct float64 `json:"steal_pct"`
	// lat holds every query's latency from due, in ms.
	lat []float64
}

func (s *stepResult) failed() int { return s.Attempted - s.OK }

func (s *stepResult) failShare() float64 {
	if s.Attempted == 0 {
		return 0
	}
	return float64(s.failed()) / float64(s.Attempted)
}

// score is how far a step is from the SLO: ≤ 1 meets it. The latency
// term is the windowed p99, so one stall of the host does not fail a step
// whose every other window met the objective; the failure term still
// counts every query the stall cost.
func (s *stepResult) score() float64 {
	return math.Max(s.WinP99ms/ms(sloP99), s.failShare()/sloFailShare)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize turns a step's outcomes into its result.
func summarize(name string, rate float64, dur time.Duration, qs []query, out []outcome, timeout time.Duration) stepResult {
	r := stepResult{Name: name, Rate: rate, Seconds: dur.Seconds()}
	lat := make([]float64, 0, len(out))
	late := make([]float64, 0, len(out))
	due := make([]time.Duration, 0, len(out))
	for i := range out {
		o := &out[i]
		if o.status == outcomeUnsent {
			continue
		}
		r.Attempted++
		l := ms(timeout)
		switch o.status {
		case outcomeOK:
			r.OK++
			l = ms(o.recv - qs[i].due)
			if o.why == whyNoSOA {
				r.NoSOA++
			}
		case outcomeTimeout, outcomePending:
			r.Timeouts++
		case outcomeRefused:
			r.Refused++
		case outcomeServFail:
			r.ServFails++
		case outcomeBad:
			r.Bad++
			if r.FirstBad == "" {
				r.FirstBad = o.why
			}
		}
		lat = append(lat, l)
		late = append(late, ms(o.sent-qs[i].due))
		due = append(due, qs[i].due)
	}
	r.lat = append([]float64(nil), lat...)
	r.WinP99ms = median(windowP99s(due, lat, dur))
	r.P50ms, r.P99ms = quantile(lat, 0.50), quantile(lat, 0.99)
	r.LateP99ms = quantile(late, 0.99)
	r.LateMaxms = quantile(late, 1)
	r.Valid = r.LateP99ms < ms(sloP99)
	r.MeetsSLO = r.Valid && r.score() <= 1
	return r
}

// latencyWindow is the width of the windows a step's latency is also
// measured over.
const latencyWindow = 100 * time.Millisecond

// windowP99s returns the p99 latency of each of the step's 100 ms windows
// (by due time). lat is indexed like due.
func windowP99s(due []time.Duration, lat []float64, dur time.Duration) []float64 {
	n := max(int(dur/latencyWindow), 1)
	wins := make([][]float64, n)
	for i := range due {
		w := min(int(due[i]/latencyWindow), n-1)
		wins[w] = append(wins[w], lat[i])
	}
	p99s := make([]float64, 0, n)
	for _, w := range wins {
		if len(w) > 0 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return p99s
}

// quantile is the nearest-rank q-quantile; it sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// maxQPS finds the highest rate that meets the SLO on the ladder steps
// (ascending, ending at the first failure). Between the last passing and
// the first failing step it interpolates, in log-rate against log-score,
// where the score crosses 1, so the estimate moves smoothly instead of in
// ladder-sized jumps. A failing step the driver could not keep up with is
// no evidence about the server: the result is then the last passing rate
// and driverBound is set.
func maxQPS(anchor *stepResult, ladder []stepResult) (qps float64, driverBound bool) {
	pass := anchor
	for i := range ladder {
		s := &ladder[i]
		if s.MeetsSLO {
			pass = s
			continue
		}
		if !s.Valid || pass == nil || !pass.MeetsSLO {
			if pass == nil || !pass.MeetsSLO {
				return 0, !s.Valid
			}
			return pass.Rate, true
		}
		lp, lf := math.Log(math.Max(pass.score(), 1e-3)), math.Log(s.score())
		t := (0 - lp) / (lf - lp)
		return math.Exp(math.Log(pass.Rate) + t*(math.Log(s.Rate)-math.Log(pass.Rate))), false
	}
	if pass == nil || !pass.MeetsSLO {
		return 0, false
	}
	return pass.Rate, false
}

// servingRun is everything one out-of-process serving run measured.
type servingRun struct {
	spec     servingSpec
	setups   []float64
	steps    []stepResult
	counters serve.Snapshot
	workers  int
	ports    []int
	flags    []string
	rssMB    float64
	cold     *stepResult
	storm    *stepResult
	maxQPS   float64
	bound    bool
	highStep *stepResult // the last round's
	fig      figures
}

// setupSpawns is how many times a run starts resolved to time its set-up;
// the last one serves the run.
const setupSpawns = 5

// runServing runs one serving workload against a child resolved.
func runServing(env *env, spec servingSpec, seed int64, seconds int) (*servingRun, error) {
	names, err := populationNames(spec.domains, 1)
	if err != nil {
		return nil, err
	}
	d, err := newDriver(env.server, env.firstPort, env.nsock, names)
	if err != nil {
		return nil, err
	}
	defer d.close()
	run := &servingRun{spec: spec, ports: d.ports, flags: serverFlags(env.server, spec.domains)}

	var srv *child
	defer func() {
		if srv != nil {
			_ = srv.stop()
		}
	}()
	for i := 0; i < setupSpawns; i++ {
		logPath := filepath.Join(env.outDir, fmt.Sprintf("%s-resolved-%d.log", spec.name, i))
		start := time.Now()
		c, err := spawn(env.resolved, logPath, run.flags)
		if err != nil {
			return nil, err
		}
		srv = c
		took, err := awaitReady(d, names[0], start, 60*time.Second, c.alive)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, took.Seconds())
		if i < setupSpawns-1 {
			if err := c.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up spawn %d: %w", i, err)
			}
			srv = nil
		} else if run.workers, err = bannerWorkers(logPath); err != nil {
			return nil, err
		}
	}
	pid := srv.cmd.Process.Pid
	probe := serverProbe{
		cpu:     func() (time.Duration, error) { return procCPU(pid) },
		rss:     func() (float64, error) { return peakRSSMB(pid) },
		workers: run.workers,
	}
	if err := run.runSteps(d, seed, seconds, probe, nil); err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("resolved exit: %w", err)
	}
	return run, nil
}

// serverProbe reads the server's resource use: cpu its CPU time so far,
// rss its peak resident set, workers its GOMAXPROCS.
type serverProbe struct {
	cpu     func() (time.Duration, error)
	rss     func() (float64, error)
	workers int
}

// runSteps runs the workload's step plan against a ready server and fills
// the run's steps, counters and summary figures. onStep, when set, sees
// every step's schedule and outcomes (the traced run keeps its spans).
func (run *servingRun) runSteps(d *driver, seed int64, seconds int, p serverProbe, onStep func(st plannedStep, qs []query, out []outcome)) error {
	spec := run.spec
	before, err := scrape(d)
	if err != nil {
		return err
	}
	for k, st := range planSteps(spec, seconds) {
		if st.kind == stepLadder && run.ladderStopped() {
			continue
		}
		qs, err := makeSchedule(seed, k, st.rate, st.dur, spec.domains, spec.uniform, len(d.socks))
		if err != nil {
			return err
		}
		cpu0, err := p.cpu()
		if err != nil {
			return err
		}
		host0, err := readHostCPU()
		if err != nil {
			return err
		}
		self0, wall0 := selfCPU(), time.Now()
		var out []outcome
		if st.kind == stepClosed {
			out, err = d.run(qs, closedWindow, st.dur)
		} else {
			out, err = d.run(qs, 0, 0)
		}
		if err != nil {
			return err
		}
		wall := time.Since(wall0)
		cpu1, err := p.cpu()
		if err != nil {
			return err
		}
		host1, err := readHostCPU()
		if err != nil {
			return err
		}
		r := summarize(st.name, st.rate, st.dur, qs, out, d.timeout)
		r.Round = st.round
		r.ServerCPUms = ms(cpu1 - cpu0)
		r.BusyPct = 100 * float64(cpu1-cpu0) / (float64(wall) * float64(p.workers))
		r.DriverCPUPct = 100 * float64(selfCPU()-self0) / float64(wall)
		r.StealPct = stealPct(host0, host1)
		if st.kind != stepWarm {
			run.steps = append(run.steps, r)
		}
		if onStep != nil {
			onStep(st, qs, out)
		}
		// Peak memory after the fixed-rate rounds: how much the closed
		// loop and the ladder serve varies, what the rounds serve must not.
		if st.name == "high" && st.round == rounds {
			if run.rssMB, err = p.rss(); err != nil {
				return err
			}
		}
		// Let the server's queue drain before the next rate.
		time.Sleep(100 * time.Millisecond)
	}
	after, err := scrape(d)
	if err != nil {
		return err
	}
	run.counters = after.Minus(before)
	run.finish()
	return nil
}

// ladderStopped reports whether the ladder already hit its first failure.
func (r *servingRun) ladderStopped() bool {
	for i := range r.steps {
		if strings.HasPrefix(r.steps[i].Name, "ladder") && !r.steps[i].MeetsSLO {
			return true
		}
	}
	return false
}

// figures are a serving run's headline numbers, each taken from the
// undisturbed steps of one kind (see quietest). Latency pools those
// steps' queries. Capacity and CPU per query pool the closed-loop steps:
// with the server busy, its CPU goes to queries rather than to waking up
// for each one, and several steps spread its GC cycles evenly. ok counts
// every query of the chosen low and high steps.
type figures struct {
	lowP50, lowP99, highP50, highP90, highP99 float64
	// highBusy and highDriverCPU average the server's busy share and the
	// driver's CPU over the high steps.
	highBusy, highDriverCPU float64
	// cpuMsPerKop is the server's CPU per 1000 closed-loop answers.
	cpuMsPerKop float64
	// capacity is closed-loop answers per second; closedSteal the host's
	// steal share over those steps, in percent.
	capacity, closedSteal float64
	attempted, failed     int
}

// finish derives the run's figures from its steps.
func (r *servingRun) finish() {
	var ladder []stepResult
	var low, high, closed []*stepResult
	for i := range r.steps {
		s := &r.steps[i]
		switch s.Name {
		case "low":
			low = append(low, s)
		case "high":
			high = append(high, s)
			r.fig.highBusy += s.BusyPct / rounds
			r.fig.highDriverCPU += s.DriverCPUPct / rounds
			r.highStep = s
		case "closed":
			closed = append(closed, s)
		case "cold":
			r.cold = s
		case "storm":
			r.storm = s
		default:
			ladder = append(ladder, *s)
		}
	}
	var lo, hi []float64
	for _, s := range quietest(low) {
		lo = append(lo, s.lat...)
		r.fig.attempted += s.Attempted
		r.fig.failed += s.failed()
	}
	for _, s := range quietest(high) {
		hi = append(hi, s.lat...)
		r.fig.attempted += s.Attempted
		r.fig.failed += s.failed()
	}
	var cpu, secs, steal float64
	ok := 0
	for _, s := range quietest(closed) {
		cpu += s.ServerCPUms
		ok += s.OK
		secs += s.Seconds
		steal += s.StealPct * s.Seconds
	}
	r.fig.lowP50, r.fig.lowP99 = quantile(lo, 0.5), quantile(lo, 0.99)
	r.fig.highP50, r.fig.highP90, r.fig.highP99 = quantile(hi, 0.5), quantile(hi, 0.9), quantile(hi, 0.99)
	r.fig.cpuMsPerKop = cpu / float64(max(ok, 1)) * 1000
	r.fig.capacity = float64(ok) / max(secs, 1e-9)
	r.fig.closedSteal = steal / max(secs, 1e-9)
	r.maxQPS, r.bound = maxQPS(r.highStep, ladder)
}

// quietStealPct is the most CPU the hypervisor may have stolen from the
// host during a step for the step to count as undisturbed.
const quietStealPct = 5

// quietest returns the steps during which the hypervisor stole at most
// quietStealPct of the host's CPU or, if fewer than half of them were that
// quiet, the quietest half. On a shared host the stolen share swings from
// nothing to 40% within a run, and a step with much of it stolen measures
// the neighbours, not the program; on a quiet host every step counts, so
// the server's GC cycles spread evenly over them.
func quietest(steps []*stepResult) []*stepResult {
	s := append([]*stepResult(nil), steps...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].StealPct < s[j].StealPct })
	n := (len(s) + 1) / 2
	for n < len(s) && s[n].StealPct <= quietStealPct {
		n++
	}
	return s[:n]
}

// Step kinds of a serving run.
const (
	stepWarm = iota
	stepCold
	stepFixed
	stepLadder
	stepClosed
	stepStorm
)

type plannedStep struct {
	name  string
	kind  int
	rate  float64
	dur   time.Duration
	round int
}

// rounds is how many times a run repeats its low-rate, high-rate and
// closed-loop steps; the run reports the undisturbed ones (see quietest).
const rounds = 6

// planSteps lays out a run's steps within its measuring time (a tenth of
// it is one unit): warm-up or the cold phase, then the low- and high-rate
// rounds, the closed-loop steps, the rate ladder and, for the uniform
// workload, the storm.
func planSteps(spec servingSpec, seconds int) []plannedStep {
	unit := time.Duration(seconds) * time.Second / 10
	var p []plannedStep
	if spec.warm {
		p = append(p, plannedStep{"warm", stepWarm, spec.low, unit, 0}, plannedStep{"warm", stepWarm, spec.high, unit, 0})
	}
	if spec.cold {
		// Time the first stretch after readiness, then let the caches
		// settle before anything else is measured.
		p = append(p, plannedStep{"cold", stepCold, spec.low, unit, 0}, plannedStep{"warm", stepWarm, spec.low, 2 * unit, 0})
	}
	for r := 1; r <= rounds; r++ {
		p = append(p,
			plannedStep{"low", stepFixed, spec.low, unit * 3 / 10, r},
			plannedStep{"high", stepFixed, spec.high, unit * 8 / 10, r})
	}
	// Closed-loop steps serve as many queries as the server manages, so
	// they come after the fixed-rate rounds, whose peak memory must not
	// depend on that.
	for r := 1; r <= rounds; r++ {
		p = append(p, plannedStep{"closed", stepClosed, spec.closedUp, unit / 2, r})
	}
	for i, rate := range spec.ladder {
		p = append(p, plannedStep{fmt.Sprintf("ladder%d", i+1), stepLadder, rate, unit * 6 / 10, 0})
	}
	if spec.storm > 0 {
		p = append(p, plannedStep{"storm", stepStorm, spec.storm, unit, 0})
	}
	return p
}

// populationNames returns the names of resolved's synthetic population, in
// rank order, for the given size and seed.
func populationNames(size int, seed int64) ([]dns.Name, error) {
	pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: size, Seed: seed})
	if err != nil {
		return nil, err
	}
	names := make([]dns.Name, len(pop.Domains))
	for i := range pop.Domains {
		names[i] = pop.Domains[i].Name
	}
	return names, nil
}
