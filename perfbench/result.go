package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// stamp records the width and provenance a result was measured at. Two
// results are comparable only when their widths match.
type stamp struct {
	NProc             int      `json:"nproc"`
	GoMaxProcs        int      `json:"gomaxprocs"`
	ServerGoMaxProcs  int      `json:"server_gomaxprocs,omitempty"`
	UDPShards         uint64   `json:"udp_shards,omitempty"`
	ServerFlags       []string `json:"server_flags,omitempty"`
	DriverPorts       []int    `json:"driver_ports,omitempty"`
	GoVersion         string   `json:"go_version"`
	Commit            string   `json:"commit,omitempty"`
	SourceDigest      string   `json:"source_digest"`
	SweepParallelism  int      `json:"sweep_parallelism,omitempty"`
	SweepShardsFixed  int      `json:"sweep_shards,omitempty"`
	SweepPopulation   int      `json:"sweep_population,omitempty"`
	ServingPopulation int      `json:"serving_population,omitempty"`
}

// width is the part of the stamp that must match for two results to be
// compared.
func (s stamp) width() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d server_gomaxprocs=%d udp_shards=%d sweep_parallelism=%d",
		s.NProc, s.GoMaxProcs, s.ServerGoMaxProcs, s.UDPShards, s.SweepParallelism)
}

// result is everything one invocation measured; it is saved whole, and
// its contract line is printed last.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Stamp     stamp             `json:"stamp"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []check           `json:"checks"`
	Findings  []check           `json:"findings,omitempty"`
	Steps     []stepResult      `json:"steps,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	// Extra holds figures printed for the reader but not part of the
	// contract line (per-step detail that only serving workloads have).
	Extra  map[string]metric `json:"extra,omitempty"`
	Ledger []ledgerRow       `json:"ledger,omitempty"`
	Notes  []string          `json:"notes,omitempty"`
}

func newResult(workload string, seed int64, seconds int, traced bool) *result {
	return &result{
		Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]metric{}, Layers: map[string]metric{}, Extra: map[string]metric{},
		Stamp: stamp{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// finding records a check the program is known to fail: it is reported
// with every run but does not make the run incorrect.
func (r *result) finding(name string, ok bool, format string, args ...any) {
	r.Findings = append(r.Findings, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// contractLine is the object printed as the last line of standard output.
func (r *result) contractLine(traced bool) map[string]any {
	m := r.Metrics
	if traced {
		m = r.Layers
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

func (r *result) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report renders the human-readable summary printed before the contract
// line.
func (r *result) report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%d traced=%t\n", r.Workload, r.Seed, r.Seconds, r.Traced)
	fmt.Fprintf(&b, "width: %s\n", r.Stamp.width())
	fmt.Fprintf(&b, "provenance: go=%s commit=%s source=%s\n", r.Stamp.GoVersion, orNone(r.Stamp.Commit), r.Stamp.SourceDigest)
	if len(r.Stamp.ServerFlags) > 0 {
		fmt.Fprintf(&b, "resolved flags: %s; driver ports: %v\n", strings.Join(r.Stamp.ServerFlags, " "), r.Stamp.DriverPorts)
	}
	if len(r.Steps) > 0 {
		fmt.Fprintf(&b, "%-8s %8s %7s %7s %5s %5s %5s %5s %8s %8s %8s %8s %8s %6s %6s %5s %6s %s\n",
			"step", "rate", "sent", "ok", "tmo", "ref", "srvf", "bad", "p50_ms", "p99_ms", "wp99", "late99", "lateMax", "srv%", "drv%", "stl%", "slo", "")
		for _, s := range r.Steps {
			flag := ""
			if !s.Valid {
				flag = "INVALID (driver late)"
			}
			fmt.Fprintf(&b, "%-8s %8.0f %7d %7d %5d %5d %5d %5d %8.3f %8.3f %8.3f %8.3f %8.3f %6.1f %6.1f %5.1f %6t %s\n",
				s.Name, s.Rate, s.Attempted, s.OK, s.Timeouts, s.Refused, s.ServFails, s.Bad,
				s.P50ms, s.P99ms, s.WinP99ms, s.LateP99ms, s.LateMaxms, s.BusyPct, s.DriverCPUPct, s.StealPct, s.MeetsSLO, flag)
		}
	}
	writeMetrics(&b, "end-to-end", r.Metrics)
	writeMetrics(&b, "detail", r.Extra)
	writeMetrics(&b, "per-layer", r.Layers)
	if len(r.Ledger) > 0 {
		b.WriteString(renderLedger(r.Ledger))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "check %s %s: %s\n", status, c.Name, c.Detail)
	}
	for _, c := range r.Findings {
		status := "ok  "
		if !c.OK {
			status = "KNOWN"
		}
		fmt.Fprintf(&b, "finding %s %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintf(&b, "correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	return b.String()
}

func writeMetrics(b *strings.Builder, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%s metrics:\n", title)
	for _, k := range keys {
		fmt.Fprintf(b, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// provenance fills the commit (when the checkout is a git repository) and
// a digest of the Go sources and module files, which identifies the code
// measured even in a checkout without history.
func (s *stamp) provenance(root string) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	s.SourceDigest = hex.EncodeToString(h.Sum(nil))[:16]
}
