package overload

import (
	"bytes"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// addWireSeeds seeds a raw-packet fuzz target with real queries (the stats
// scrape in both cases, with and without an OPT record), a response, and
// short and garbage inputs.
func addWireSeeds(f *testing.F) {
	f.Helper()
	for _, q := range []struct {
		name  string
		qtype dns.Type
		edns  bool
	}{
		{"_stats.resolved.invalid", dns.TypeTXT, true},
		{"_STATS.Resolved.INVALID", dns.TypeTXT, false},
		{"_stats.resolved.invalid", dns.TypeA, true},
		{"_stats.resolved.invalid", dns.TypeTXT | 1<<8, true}, // TXT's low byte only
		{"www.example.com", dns.TypeA, true},
	} {
		wire, err := dns.NewQuery(0xBEEF, dns.MustName(q.name), q.qtype, q.edns).Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		resp := bytes.Clone(wire)
		resp[2] |= 0x80
		f.Add(resp)
	}
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x34, 0x01})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderLen))
	f.Add(bytes.Repeat([]byte{0x00}, HeaderLen+len(statsQNameWire)+4))
}

// FuzzIsStatsQuery drives the stats-bypass check with arbitrary packets: it
// must never panic, and whatever it exempts must really be a TXT query for
// the stats name — anything else would let unadmitted work past the gate.
func FuzzIsStatsQuery(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if !IsStatsQuery(pkt) {
			return
		}
		q, err := dns.DecodeQuestion(pkt)
		if err != nil {
			t.Fatalf("exempted packet's question does not parse: %v", err)
		}
		if q.Name != dns.MustName("_stats.resolved.invalid") || q.Type != dns.TypeTXT {
			t.Fatalf("exempted question %s %s; want TXT _stats.resolved.invalid.", q.Name, q.Type)
		}
	})
}

// FuzzRefusedInto drives the shed-path encoder with arbitrary packets: it
// must never panic, and for anything at least a header long it must answer
// with a bare REFUSED header echoing the query's ID and RD bit.
func FuzzRefusedInto(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, q []byte) {
		var buf [HeaderLen]byte
		resp := RefusedInto(buf[:], q)
		if len(q) < HeaderLen {
			if resp != nil {
				t.Fatalf("short input (%d bytes) answered with %x", len(q), resp)
			}
			return
		}
		if len(resp) != HeaderLen {
			t.Fatalf("response is %d bytes; want %d", len(resp), HeaderLen)
		}
		if resp[0] != q[0] || resp[1] != q[1] {
			t.Errorf("ID %x; want the query's %x", resp[:2], q[:2])
		}
		if resp[2] != 0x80|q[2]&0x01 {
			t.Errorf("flags byte %#x; want QR set, opcode/AA/TC clear, RD %d echoed", resp[2], q[2]&0x01)
		}
		if resp[3] != 0x05 {
			t.Errorf("flags byte %#x; want RA/Z clear and RCODE 5 (REFUSED)", resp[3])
		}
		if !bytes.Equal(resp[4:], make([]byte, HeaderLen-4)) {
			t.Errorf("counts %x; want all zero", resp[4:])
		}
	})
}
