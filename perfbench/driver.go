package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/loadgen"
)

// query is one scheduled query of a step: due is its send time as an offset
// from the step start, name a population index, sock the driver socket that
// owns its client.
type query struct {
	due  time.Duration
	name int32
	aaaa bool
	sock uint8
}

// scheduleClients is the number of simulated stub clients behind the
// driver's sockets; a client's queries always leave from the same socket.
const scheduleClients = 1000

// makeSchedule builds the seeded schedule of one step: rate×dur queries
// from loadgen's DITL-shaped generator (Zipf names, or uniform names for
// cache-busting), spread evenly over dur with seeded jitter, half A and
// half AAAA. The same (seed, step) always yields the same schedule.
func makeSchedule(seed int64, step int, rate float64, dur time.Duration, pop int, uniform bool, nsock int) ([]query, error) {
	n := int(math.Round(rate * dur.Seconds()))
	if n <= 0 {
		return nil, fmt.Errorf("step %d: rate %.0f q/s over %s schedules no queries", step, rate, dur)
	}
	stepSeed := int64(mix(uint64(seed), uint64(step)+1))
	s, err := loadgen.NewSchedule(loadgen.ScheduleConfig{
		Clients: scheduleClients, PopSize: pop, Seed: stepSeed, Uniform: uniform,
	}, loadgen.MinuteSource([]int{n}))
	if err != nil {
		return nil, err
	}
	qs := make([]query, 0, n)
	for {
		ev, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		i := len(qs)
		qs = append(qs, query{
			// The generator spreads one trace minute; compress it to dur.
			due:  time.Duration(float64(ev.At) * float64(dur) / float64(time.Minute)),
			name: ev.Name,
			aaaa: mix(uint64(stepSeed), uint64(i))&1 == 1,
			sock: uint8(int(ev.Client) % nsock),
		})
	}
	return qs, nil
}

// scheduleBytes serializes a schedule, so tests can compare two of them
// byte for byte.
func scheduleBytes(qs []query) []byte {
	out := make([]byte, 0, len(qs)*14)
	for _, q := range qs {
		out = binary.BigEndian.AppendUint64(out, uint64(q.due))
		out = binary.BigEndian.AppendUint32(out, uint32(q.name))
		aaaa := byte(0)
		if q.aaaa {
			aaaa = 1
		}
		out = append(out, aaaa, q.sock)
	}
	return out
}

// mix is splitmix64's finalizer over a seed/counter pair.
func mix(a, b uint64) uint64 {
	x := a ^ (b * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Query outcomes. A query that is not outcomeOK counts as failed.
const (
	outcomePending uint8 = iota
	outcomeOK
	outcomeTimeout
	outcomeRefused
	outcomeServFail
	outcomeBad
	// outcomeUnsent marks a closed-loop query the step ended before.
	outcomeUnsent
)

// outcome is what happened to one scheduled query. Times are offsets from
// the step start; recv is zero unless a reply arrived.
type outcome struct {
	sent, recv time.Duration
	status     uint8
	// why explains a failed answer check (outcomeBad only).
	why string
}

// driver is the open-loop load generator: one UDP socket per core, bound
// to fixed source ports so the server's SO_REUSEPORT split is the same on
// every run, and one goroutine per socket that both sends on schedule and
// reads replies. Nothing else in the process does I/O while a step runs.
type driver struct {
	socks   []*sock
	ports   []int
	server  netip.AddrPort
	names   []dns.Name
	timeout time.Duration
	// idSpan partitions the 16-bit ID space between sockets, so IDs are
	// unique process-wide and a reply identifies its query by ID alone.
	idSpan int
	seq    []int
	// lastStart and lastIDs are the start time and query IDs of the most
	// recent step, for joining its outcomes with server-side spans.
	lastStart time.Time
	lastIDs   []uint16
	// onReply, when set, observes every matched reply with its query (the
	// traced run keeps packets for the codec benchmarks).
	onReply func(query, reply []byte, o *outcome)
}

// newDriver binds nsock sockets on 127.0.0.1 at ports firstPort,
// firstPort+1, …; firstPort 0 lets the kernel pick (tests only).
func newDriver(server netip.AddrPort, firstPort, nsock int, names []dns.Name) (*driver, error) {
	d := &driver{server: server, names: names, timeout: time.Second,
		idSpan: 65536 / nsock, seq: make([]int, nsock)}
	for i := 0; i < nsock; i++ {
		port := 0
		if firstPort > 0 {
			port = firstPort + i
		}
		s, err := openSock(port, server)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("driver socket %d: %w", i, err)
		}
		d.socks = append(d.socks, s)
		d.ports = append(d.ports, s.port)
	}
	return d, nil
}

func (d *driver) close() {
	for _, s := range d.socks {
		s.close()
	}
}

// nextID returns the next DNS ID owned by socket s.
func (d *driver) nextID(s int) uint16 {
	id := uint16(s*d.idSpan + d.seq[s]%d.idSpan)
	d.seq[s]++
	return id
}

// encodeQuery builds the wire form of a query (EDNS with DO=1).
func (d *driver) encodeQuery(id uint16, q *query) ([]byte, error) {
	t := dns.TypeA
	if q.aaaa {
		t = dns.TypeAAAA
	}
	return dns.NewQuery(id, d.names[q.name], t, true).Encode()
}

// run sends one step's schedule and waits for every reply or timeout.
// With window 0 it is open-loop: each query is sent when due and timed
// from its due time, so a stall delays, and is charged to, every query
// due behind it. With window > 0 it is closed-loop: each socket keeps
// window queries outstanding and sends the next as soon as one is answered
// or times out, until dur has passed; queries it never got to stay
// outcomeUnsent.
func (d *driver) run(qs []query, window int, dur time.Duration) ([]outcome, error) {
	out := make([]outcome, len(qs))
	bySock := make([][]int, len(d.socks))
	wires := make([][]byte, len(qs))
	ids := make([]uint16, len(qs))
	for i := range qs {
		s := int(qs[i].sock)
		bySock[s] = append(bySock[s], i)
		ids[i] = d.nextID(s)
		w, err := d.encodeQuery(ids[i], &qs[i])
		if err != nil {
			return nil, err
		}
		wires[i] = w
	}
	start := time.Now().Add(5 * time.Millisecond)
	d.lastStart, d.lastIDs = start, ids
	var wg sync.WaitGroup
	errs := make([]error, len(d.socks))
	for s := range d.socks {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = d.lane(s, start, qs, bySock[s], wires, ids, out, window, dur)
		}(s)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// lane drives one socket: it sends each of its queries when due, drains
// the replies queued since, and sleeps until the next due time or reply.
func (d *driver) lane(s int, start time.Time, qs []query, mine []int, wires [][]byte, ids []uint16, out []outcome, window int, dur time.Duration) error {
	sk := d.socks[s]
	byID := make(map[uint16]int, 1024)
	var buf [4096]byte
	next, oldest := 0, 0
	if window > 0 {
		// Closed loop: nothing is due before it is sent.
		defer func() {
			for _, i := range mine[next:] {
				out[i].status = outcomeUnsent
			}
		}()
	}
	due := func() bool {
		if next == len(mine) {
			return false
		}
		now := time.Since(start)
		if window > 0 {
			return len(byID) < window && now < dur
		}
		return qs[mine[next]].due <= now
	}
	for {
		for due() {
			i := mine[next]
			out[i].sent = time.Since(start)
			if window > 0 {
				qs[i].due = out[i].sent
			}
			if err := sk.send(wires[i]); err != nil {
				return fmt.Errorf("driver port %d: %w", sk.port, err)
			}
			byID[ids[i]] = i
			next++
		}
		for {
			n, ok, err := sk.recv(buf[:])
			if errors.Is(err, syscall.ECONNREFUSED) {
				continue // a reply can still come for every other query
			}
			if err != nil {
				return fmt.Errorf("driver port %d: %w", sk.port, err)
			}
			if !ok {
				break
			}
			recv := time.Since(start)
			if n < 2 {
				continue
			}
			i, ok := byID[binary.BigEndian.Uint16(buf[:2])]
			if !ok || !sameQuestion(buf[:n], d.names[qs[i].name]) {
				continue // late reply to an expired query
			}
			delete(byID, ids[i])
			o := &out[i]
			o.recv = recv
			o.status, o.why = checkAnswer(buf[:n], ids[i], d.names[qs[i].name], qs[i].aaaa)
			if d.onReply != nil {
				d.onReply(wires[i], buf[:n], o)
			}
		}
		// Expire queries that outlived the timeout, oldest first (sends
		// happen in due order).
		now := time.Since(start)
		for oldest < next {
			i := mine[oldest]
			if out[i].status != outcomePending {
				oldest++
				continue
			}
			if now-out[i].sent < d.timeout {
				break
			}
			out[i].status = outcomeTimeout
			delete(byID, ids[i])
			oldest++
		}
		if (next == len(mine) || window > 0 && now >= dur) && oldest == next {
			return nil
		}
		if due() {
			continue // replies freed closed-loop slots
		}
		var wake time.Duration
		switch {
		case window > 0 && oldest == next:
			wake = dur
		case window > 0:
			wake = out[mine[oldest]].sent + d.timeout
		case next < len(mine) && oldest < next:
			wake = min(qs[mine[next]].due, out[mine[oldest]].sent+d.timeout)
		case next < len(mine):
			wake = qs[mine[next]].due
		default:
			wake = out[mine[oldest]].sent + d.timeout
		}
		if err := sk.wait(wake-time.Since(start), false); err != nil {
			return fmt.Errorf("driver port %d: %w", sk.port, err)
		}
	}
}

// exchange sends one query from socket 0 outside any step (readiness probe
// and stats scrapes) and returns the first reply carrying its ID.
func (d *driver) exchange(q *dns.Message, wait time.Duration) ([]byte, error) {
	q.Header.ID = d.nextID(0)
	wire, err := q.Encode()
	if err != nil {
		return nil, err
	}
	sk := d.socks[0]
	if err := sk.send(wire); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	var buf [4096]byte
	for {
		n, ok, err := sk.recv(buf[:])
		if err != nil {
			return nil, err
		}
		if ok && n >= 2 && binary.BigEndian.Uint16(buf[:2]) == q.Header.ID {
			return append([]byte(nil), buf[:n]...), nil
		}
		if ok {
			continue
		}
		left := time.Until(deadline)
		if left <= 0 {
			return nil, os.ErrDeadlineExceeded
		}
		if err := sk.wait(left, false); err != nil {
			return nil, err
		}
	}
}

// whyNoSOA marks an OK AAAA NODATA reply that lacks the SOA.
const whyNoSOA = "AAAA NODATA without SOA"

// outcomeText names a failed outcome for messages.
func outcomeText(st uint8, why string) string {
	switch st {
	case outcomeTimeout, outcomePending:
		return "timed out"
	case outcomeRefused:
		return "REFUSED"
	case outcomeServFail:
		return "SERVFAIL"
	case outcomeBad:
		return why
	}
	return "ok"
}

// sameQuestion reports whether a reply is about name, so a late reply to
// an expired query is not matched to a newer query reusing its ID.
func sameQuestion(pkt []byte, name dns.Name) bool {
	q, err := dns.DecodeQuestion(pkt)
	// A reply without a question (a shed) can only be matched by ID.
	return err != nil || q.Name == "" || strings.EqualFold(string(q.Name), string(name))
}

// checkAnswer validates one reply: ID and question echoed, QR set, RCODE
// NOERROR; an A query must carry an A record, an AAAA query an AAAA record
// or NODATA with the zone's SOA. REFUSED (a shed) and SERVFAIL are their own
// failure kinds.
func checkAnswer(pkt []byte, id uint16, name dns.Name, aaaa bool) (uint8, string) {
	m, err := dns.DecodeMessage(pkt)
	if err != nil {
		return outcomeBad, "undecodable reply: " + err.Error()
	}
	qtype := dns.TypeA
	if aaaa {
		qtype = dns.TypeAAAA
	}
	switch {
	case m.Header.ID != id:
		return outcomeBad, "ID not echoed"
	case !m.Header.QR:
		return outcomeBad, "QR not set"
	case m.Header.RCode == dns.RCodeRefused && len(m.Question) == 0:
		// The overload shed answers from a pre-encoded header alone.
		return outcomeRefused, ""
	case len(m.Question) != 1 || !strings.EqualFold(string(m.Question[0].Name), string(name)) ||
		m.Question[0].Type != qtype || m.Question[0].Class != dns.ClassIN:
		return outcomeBad, "question not echoed"
	case m.Header.RCode == dns.RCodeRefused:
		return outcomeRefused, ""
	case m.Header.RCode == dns.RCodeServFail:
		return outcomeServFail, ""
	case m.Header.RCode != dns.RCodeNoError:
		return outcomeBad, "rcode " + m.Header.RCode.String()
	case m.Header.TC:
		return outcomeBad, "truncated"
	}
	for _, rr := range m.Answer {
		if rr.Type == qtype {
			return outcomeOK, ""
		}
	}
	if aaaa && len(m.Answer) == 0 {
		for _, rr := range m.Authority {
			if rr.Type == dns.TypeSOA {
				return outcomeOK, ""
			}
		}
		// resolved answers stubs with the answer section only, so its
		// NODATA carries no SOA (RFC 2308 §2.2 asks for one). The reply is
		// otherwise a correct NODATA; it is counted as a finding rather
		// than failed, so the benchmark stays usable until the resolver
		// returns the SOA.
		return outcomeOK, whyNoSOA
	}
	return outcomeBad, "no " + qtype.String() + " answer"
}
