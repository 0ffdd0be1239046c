package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/serve"
)

// statsReply builds a stats-surface reply carrying the given key=value
// strings, as resolved's TXT stats answer does.
func statsReply(kv ...string) *dns.Message {
	q := dns.NewQuery(1, serve.StatsName, dns.TypeTXT, false)
	resp := dns.NewResponse(q)
	resp.Answer = []dns.RR{{Name: serve.StatsName, Type: dns.TypeTXT, Class: dns.ClassIN,
		Data: &dns.TXTData{Strings: kv}}}
	return resp
}

func TestStatsSurfaceDelta(t *testing.T) {
	before, err := serve.ParseSnapshot(statsReply("udp_queries=1000", "udp_responses=990", "ovl_admitted=900",
		"ovl_shed_window=50", "resolutions=800", "cache_hits=400", "dlv_queries=20", "udp_shards=2", "udp_max_inflight=7"))
	if err != nil {
		t.Fatal(err)
	}
	after, err := serve.ParseSnapshot(statsReply("udp_queries=3000", "udp_responses=2985", "ovl_admitted=2800",
		"ovl_shed_window=150", "resolutions=2800", "cache_hits=1900", "dlv_queries=70", "udp_shards=2", "udp_max_inflight=9"))
	if err != nil {
		t.Fatal(err)
	}
	d := after.Minus(before)
	L := counterLayers(d, 2000)
	want := map[string]float64{
		"udptransport.queries":      2000,
		"udptransport.responses":    1995,
		"udptransport.max_inflight": 9, // a watermark keeps its later value
		"overload.admitted":         1900,
		"overload.shed_window":      100,
		"resolver.answer_hit_pct":   75, // 1500 of 2000 resolutions
		"resolver.dlv_per_kop":      25, // 50 per 2000 queries
	}
	for k, v := range want {
		if got := L[k].Value; got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if d.UDPShards != 2 {
		t.Errorf("udp_shards delta = %d, want the width 2 kept", d.UDPShards)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime
	// are fields 14 and 15, in clock ticks.
	line := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 3 0 12345 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (cmd) S 1 2")); err == nil {
		t.Fatal("short line parsed")
	}

	// This process's own /proc reading agrees with getrusage.
	spin := time.Now()
	for time.Since(spin) < 100*time.Millisecond {
	}
	proc, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	self := selfCPU()
	if diff := self - proc; diff < -50*time.Millisecond || diff > 50*time.Millisecond {
		t.Fatalf("/proc says %v of CPU, getrusage %v", proc, self)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tresolved\nVmPeak:\t 900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 400000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 512 {
		t.Fatalf("VmHWM = %v MB, want 512", got)
	}
	if _, err := parseVmHWM(strings.NewReader("Name:\tx\n")); err == nil {
		t.Fatal("status without VmHWM parsed")
	}
	if mb, err := peakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("own peak RSS %v MB, err %v", mb, err)
	}
}

func TestBannerWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resolved.log")
	banner := `resolved: serving on 127.0.0.1:53531 udp+tcp (population=100000, dlv=true, root-anchor=true, remedy="", workers=2, udp-shards=2)` + "\n"
	if err := os.WriteFile(path, []byte(banner), 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := bannerWorkers(path); err != nil || w != 2 {
		t.Fatalf("workers=%d err=%v, want 2", w, err)
	}
}

func TestCompareRefusesDifferentWidths(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int, p50 float64) string {
		r := newResult("serve-zipf", 1, 20, false)
		r.Stamp.NProc, r.Stamp.GoMaxProcs, r.Stamp.UDPShards = nproc, nproc, uint64(nproc)
		r.Metrics["p50_ms"] = metric{p50, "ms"}
		path := filepath.Join(dir, name)
		if err := r.save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, wide := write("a.json", 2, 0.1), write("b.json", 2, 0.12), write("wide.json", 4, 0.05)
	var out strings.Builder
	if err := compare(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+20.0%") {
		t.Fatalf("diff of equal widths lacks the p50 change:\n%s", out.String())
	}
	out.Reset()
	if err := compare(&out, a, wide); err == nil || !strings.Contains(err.Error(), "different widths") {
		t.Fatalf("compare across widths: err %v, output %q", err, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("refused comparison still printed a diff: %q", out.String())
	}
}

func TestMaxQPSInterpolates(t *testing.T) {
	step := func(rate, p99 float64) stepResult {
		return stepResult{Name: "ladder", Rate: rate, Attempted: 1000, OK: 1000, WinP99ms: p99, Valid: true,
			MeetsSLO: p99 <= 10}
	}
	anchor := step(8000, 1)
	// Score 0.5 at 10k, 2 at 12.5k: the SLO is crossed halfway in log
	// space between them.
	ladder := []stepResult{step(10000, 5), step(12500, 20)}
	got, bound := maxQPS(&anchor, ladder)
	if bound {
		t.Fatal("valid failing step reported as driver-bound")
	}
	if want := 11180.3; got < want-1 || got > want+1 {
		t.Fatalf("max_qps = %.1f, want %.1f", got, want)
	}
	invalid := step(12500, 20)
	invalid.Valid, invalid.MeetsSLO = false, false
	if got, bound := maxQPS(&anchor, []stepResult{step(10000, 5), invalid}); got != 10000 || !bound {
		t.Fatalf("driver-bound ladder: max_qps %.0f bound %t, want 10000 true", got, bound)
	}
}

func TestQuietestDropsStepsTheHostStoleFrom(t *testing.T) {
	steps := func(steal ...float64) []*stepResult {
		out := make([]*stepResult, len(steal))
		for i, s := range steal {
			out[i] = &stepResult{Round: i + 1, StealPct: s}
		}
		return out
	}
	rounds := func(ss []*stepResult) []int {
		var r []int
		for _, s := range ss {
			r = append(r, s.Round)
		}
		return r
	}
	// A quiet host: every step counts.
	if got := rounds(quietest(steps(0, 1, 0.5, 2, 0, 4))); len(got) != 6 {
		t.Fatalf("quiet host kept rounds %v, want all six", got)
	}
	// Two disturbed steps are dropped.
	if got := rounds(quietest(steps(0, 30, 1, 12, 0, 2))); fmt.Sprint(got) != "[1 5 3 6]" {
		t.Fatalf("kept rounds %v, want [1 5 3 6]", got)
	}
	// A noisy host still leaves the quietest half.
	if got := rounds(quietest(steps(20, 30, 9, 12, 40, 8))); fmt.Sprint(got) != "[6 3 4]" {
		t.Fatalf("noisy host kept rounds %v, want [6 3 4]", got)
	}
}

func TestParseHostCPU(t *testing.T) {
	a, err := parseHostCPU([]byte("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Fatalf("total %d steal %d, want 1000 35", a.total, a.steal)
	}
	b := hostCPU{total: 1200, steal: 75}
	if got := stealPct(a, b); got != 20 {
		t.Fatalf("steal %.1f%%, want 20%%", got)
	}
	if _, err := parseHostCPU([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("stat without the cpu line parsed")
	}
}
