package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/overload"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// span is one traced interval: a layer's call, its start and end as
// offsets from the run's epoch, its parent layer, and the identifier the
// spans of one operation share.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent string        `json:"parent,omitempty"`
	ID     string        `json:"id,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name, parent, id string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{name, start.Sub(l.epoch), end.Sub(l.epoch), parent, id})
	l.mu.Unlock()
}

// write saves the spans as one JSON object per line.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// queryID is the identifier the spans of one served query share.
func queryID(id uint16, name dns.Name) string { return fmt.Sprintf("%d/%s", id, name) }

// handleSpan is one timed serve.Service.HandleQuery call.
type handleSpan struct {
	id         uint16
	name       dns.Name
	start, end time.Time
}

// tracedHandler times every call into the handler the listeners are given,
// which is how the stack is entered from the transport.
type tracedHandler struct {
	next  simnet.Handler
	mu    sync.Mutex
	calls []handleSpan
}

func (h *tracedHandler) HandleQuery(q *dns.Message, from netip.Addr) (*dns.Message, error) {
	start := time.Now()
	resp, err := h.next.HandleQuery(q, from)
	end := time.Now()
	if len(q.Question) == 1 {
		h.mu.Lock()
		h.calls = append(h.calls, handleSpan{q.Header.ID, q.Question[0].Name, start, end})
		h.mu.Unlock()
	}
	return resp, err
}

// take returns and forgets the calls recorded so far.
func (h *tracedHandler) take() []handleSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.calls
	h.calls = nil
	return c
}

// tapCounts counts simnet exchanges by the responding server's role, and
// the bytes they carried.
type tapCounts struct {
	root, tld, sld, registry, other, bytes atomic.Int64
}

func (c *tapCounts) tap(ev simnet.Event) {
	switch ev.DstRole {
	case simnet.RoleRoot:
		c.root.Add(1)
	case simnet.RoleTLD:
		c.tld.Add(1)
	case simnet.RoleSLD:
		c.sld.Add(1)
	case simnet.RoleDLV:
		c.registry.Add(1)
	default:
		c.other.Add(1)
	}
	c.bytes.Add(int64(ev.QuerySize + ev.RespSize))
}

func (c *tapCounts) layers(ops float64) map[string]metric {
	per := func(v int64) float64 { return float64(v) / max(ops, 1) }
	return map[string]metric{
		"simnet.exchanges_per_op.root":     {per(c.root.Load()), "count"},
		"simnet.exchanges_per_op.tld":      {per(c.tld.Load()), "count"},
		"simnet.exchanges_per_op.sld":      {per(c.sld.Load()), "count"},
		"simnet.exchanges_per_op.registry": {per(c.registry.Load()), "count"},
		"simnet.bytes_per_op":              {per(c.bytes.Load()), "B"},
	}
}

// runtimeSample is the process's Go runtime state at one instant.
type runtimeSample struct {
	gcCPU    float64 // seconds
	allocs   uint64  // objects
	liveHeap uint64  // bytes
	cpu      time.Duration
}

var runtimeNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:objects", "/gc/heap/live:bytes"}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i := range s {
		s[i].Name = runtimeNames[i]
	}
	rtmetrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		r.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == rtmetrics.KindUint64 {
		r.liveHeap = s[2].Value.Uint64()
	}
	r.cpu = selfCPU()
	return r
}

// runtimeLayers reports the Go runtime's share of a traced stretch: GC CPU
// as a share of the process's CPU, allocations per op, and the live heap
// at its end.
func runtimeLayers(a, b runtimeSample, ops float64) map[string]metric {
	cpu := (b.cpu - a.cpu).Seconds()
	return map[string]metric{
		"go.gc_cpu_pct":    {100 * (b.gcCPU - a.gcCPU) / max(cpu, 1e-9), "%"},
		"go.allocs_per_op": {float64(b.allocs-a.allocs) / max(ops, 1), "count"},
		"go.heap_live_mb":  {float64(b.liveHeap) / (1 << 20), "MB"},
	}
}

// codecCost times the public DNS codec on recorded messages: every
// message decoded, then every decoded message encoded, with the
// allocations both make per message.
func codecCost(msgs [][]byte) (decodeNS, encodeNS, allocsPerMsg float64, err error) {
	if len(msgs) == 0 {
		return 0, 0, 0, fmt.Errorf("no recorded messages")
	}
	decoded := make([]*dns.Message, len(msgs))
	const rounds = 5
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i, b := range msgs {
			if decoded[i], err = dns.DecodeMessage(b); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	dec := time.Since(t)
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range decoded {
			if _, err = m.Encode(); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	enc := time.Since(t)
	runtime.ReadMemStats(&ms1)
	n := float64(rounds * len(msgs))
	return float64(dec) / n, float64(enc) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, nil
}

// admitCost times the admission check on recorded query packets: each
// AdmitFast with the uncontended Acquire and Release an admitted query
// commits the transport to, on a controller configured as resolved
// configures it.
func admitCost(queries [][]byte, workers int) (float64, error) {
	if len(queries) == 0 {
		return 0, fmt.Errorf("no recorded queries")
	}
	c := overload.New(overload.Config{MaxInFlight: 256, Exec: workers, QueueTarget: 20 * time.Millisecond})
	defer c.Close()
	src := netip.MustParseAddr("127.0.0.1")
	const rounds = 20
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			if c.AdmitFast(q, src) != overload.Admitted {
				return 0, fmt.Errorf("recorded query not admitted")
			}
			if !c.Acquire() {
				return 0, fmt.Errorf("uncontended acquire shed")
			}
			c.Release()
		}
	}
	return float64(time.Since(t)) / float64(rounds*len(queries)), nil
}

// ledgerRow is one row of a per-layer cost table: a layer's mean and
// median self time per operation.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	// Estimated rows break a measured row down with microbenchmark costs;
	// they are not added again when the table is closed. The last row is
	// the total.
	Estimated bool `json:"estimated,omitempty"`
}

// renderLedger formats the cost table with each row's share of the last
// row, the total.
func renderLedger(rows []ledgerRow) string {
	var b strings.Builder
	total := rows[len(rows)-1].MeanUS
	fmt.Fprintf(&b, "per-layer cost ledger (self time per op):\n  %-46s %10s %10s %7s\n", "layer", "mean_us", "p50_us", "share")
	for _, r := range rows {
		name, p50 := r.Layer, fmt.Sprintf("%.2f", r.P50US)
		if r.Estimated {
			name, p50 = "  "+name+" (est.)", "-"
		}
		fmt.Fprintf(&b, "  %-46s %10.2f %10s %6.1f%%\n", name, r.MeanUS, p50, 100*r.MeanUS/max(total, 1e-9))
	}
	return b.String()
}

// meanP50 returns the mean and median of xs (µs).
func meanP50(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return sum / float64(len(xs)), quantile(c, 0.5)
}
