package main

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

func TestScheduleDeterministic(t *testing.T) {
	a, err := makeSchedule(7, 3, 2000, 2*time.Second, 100_000, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSchedule(7, 3, 2000, 2*time.Second, 100_000, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scheduleBytes(a), scheduleBytes(b)) {
		t.Fatal("same seed gave different schedules")
	}
	c, err := makeSchedule(8, 3, 2000, 2*time.Second, 100_000, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(scheduleBytes(a), scheduleBytes(c)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 4000 {
		t.Fatalf("schedule has %d queries, want 4000", len(a))
	}
	aaaa := 0
	for i, q := range a {
		if i > 0 && q.due < a[i-1].due {
			t.Fatal("schedule is not in due order")
		}
		if q.due < 0 || q.due >= 2*time.Second {
			t.Fatalf("query %d due at %s, outside the step", i, q.due)
		}
		if q.aaaa {
			aaaa++
		}
	}
	if aaaa < 1800 || aaaa > 2200 {
		t.Fatalf("%d of 4000 queries are AAAA, want about half", aaaa)
	}
}

// fakeServer answers every A query with one A record. When stallAt is
// set, the reply to the first query arriving after it is held back
// stallFor, and so is every query behind it, as a server stuck for that
// long would.
type fakeServer struct {
	conn     *net.UDPConn
	stallAt  time.Time
	stallFor time.Duration
	wg       sync.WaitGroup
}

func startFake(t *testing.T, stallAt time.Time, stallFor time.Duration) *fakeServer {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{conn: c, stallAt: stallAt, stallFor: stallFor}
	f.wg.Add(1)
	go f.serve()
	t.Cleanup(func() {
		_ = c.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeServer) addr() netip.AddrPort { return f.conn.LocalAddr().(*net.UDPAddr).AddrPort() }

func (f *fakeServer) serve() {
	defer f.wg.Done()
	var buf [4096]byte
	stalled := f.stallFor == 0
	for {
		n, from, err := f.conn.ReadFromUDPAddrPort(buf[:])
		if err != nil {
			return
		}
		if !stalled && time.Now().After(f.stallAt) {
			stalled = true
			time.Sleep(f.stallFor)
		}
		q, err := dns.DecodeMessage(buf[:n])
		if err != nil {
			continue
		}
		resp := dns.NewResponse(q)
		resp.Header.RA = true
		resp.Answer = []dns.RR{{Name: q.Question[0].Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 60,
			Data: &dns.AData{Addr: netip.MustParseAddr("192.0.2.1")}}}
		wire, err := resp.Encode()
		if err != nil {
			continue
		}
		_, _ = f.conn.WriteToUDPAddrPort(wire, from)
	}
}

func testNames(n int) []dns.Name {
	names := make([]dns.Name, n)
	for i := range names {
		names[i] = dns.MustName("d" + string(rune('a'+i%26)) + ".example")
	}
	return names
}

// aOnly returns a schedule of A queries only (the fake server answers A).
func aOnly(t *testing.T, rate float64, dur time.Duration) []query {
	t.Helper()
	qs, err := makeSchedule(1, 0, rate, dur, 26, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		qs[i].aaaa = false
	}
	return qs
}

func TestDriverChargesStallToQueriesDueBehindIt(t *testing.T) {
	// The driver shares the host with the fake server; a host stall that
	// makes the driver itself late spoils an attempt, so allow three.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = stallAttempt(t); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt+1, err)
	}
	t.Fatal(err)
}

// stallAttempt runs 1000 q/s for a second against a server that stalls
// 50 ms at 400 ms, and checks the stall was charged to the queries due
// during it.
func stallAttempt(t *testing.T) error {
	const stall = 50 * time.Millisecond
	dur := time.Second
	f := startFake(t, time.Now().Add(400*time.Millisecond), stall)
	d, err := newDriver(f.addr(), 0, 2, testNames(26))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	qs := aOnly(t, 1000, dur)
	out, err := d.run(qs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := summarize("stall", 1000, dur, qs, out, d.timeout)
	if r.OK != len(qs) {
		t.Fatalf("%d of %d queries answered correctly (first bad: %s)", r.OK, len(qs), r.FirstBad)
	}
	if r.LateP99ms >= 5 {
		return fmt.Errorf("driver itself ran late: p99 %.2f ms", r.LateP99ms)
	}
	// About 50 queries were due during the stall. Timed from due, each
	// waited for the rest of it, so the slowest reply is close to the
	// whole stall and dozens of queries saw far more than the service
	// time.
	var worst time.Duration
	behind := 0
	for i := range out {
		lat := out[i].recv - qs[i].due
		worst = max(worst, lat)
		if lat > 20*time.Millisecond {
			behind++
		}
	}
	if worst < 45*time.Millisecond {
		t.Fatalf("slowest query %s from due; the 50 ms stall was not charged", worst)
	}
	if behind < 15 {
		t.Fatalf("only %d queries saw more than 20 ms from due; the stall should delay the ~50 queued behind it", behind)
	}
	return nil
}

func TestDriverTimesOutUnansweredQueries(t *testing.T) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d, err := newDriver(c.LocalAddr().(*net.UDPAddr).AddrPort(), 0, 2, testNames(26))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.timeout = 100 * time.Millisecond
	qs := aOnly(t, 100, 200*time.Millisecond)
	out, err := d.run(qs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := summarize("silent", 100, 200*time.Millisecond, qs, out, d.timeout)
	if r.Timeouts != len(qs) || r.OK != 0 {
		t.Fatalf("got %d timeouts and %d answers of %d queries to a silent server", r.Timeouts, r.OK, len(qs))
	}
}

func TestDriverClosedLoopRefillsItsWindow(t *testing.T) {
	f := startFake(t, time.Time{}, 0)
	d, err := newDriver(f.addr(), 0, 2, testNames(26))
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	// 4000 queries, 8 outstanding per socket: a lane that waited for its
	// whole window to drain before refilling it would not finish in time.
	qs := aOnly(t, 4000, time.Second)
	out, err := d.run(qs, 8, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := summarize("closed", 0, 5*time.Second, qs, out, d.timeout)
	if r.Attempted != len(qs) || r.OK != len(qs) {
		t.Fatalf("closed loop sent %d and got %d answers of %d queries", r.Attempted, r.OK, len(qs))
	}
	if r.LateMaxms != 0 {
		t.Fatalf("closed-loop queries are due when sent, got lateness %.3f ms", r.LateMaxms)
	}
}
