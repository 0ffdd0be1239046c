package lookaside

// Wire-level hot path benchmarks: one simnet exchange against an
// authoritative server, with the packet cache on (the default), off, and on
// the retained seed-era reference path. docs/results-hotpath.md records the
// before/after numbers; TestExchangeAllocationBudget pins the steady-state
// allocation ceiling so regressions fail in CI rather than in a profile.
// BenchmarkZoneReferral isolates one layer below the wire: a referral out
// of a synth-backed TLD zone at paper scale (docs/results-sweep.md).
// BenchmarkColdStart times what a fresh universe costs before its TLD tier
// has answered once (docs/results-serve.md, "Cold start").

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/authserver"
	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/simnet"
	"github.com/dnsprivacy/lookaside/internal/universe"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// allocBudgetExchange bounds one warm exchange (pooled query encode,
// question-only server-side decode, packet-cache hit cloned to the caller,
// wire served by ID patch, tap accounting): measured 7 allocs/op, pinned
// with headroom. The seed-era reference path needs ~23 allocations and
// ~3x the time for the same exchange.
const allocBudgetExchange = 10

// newExchangeBench wires one signed zone behind an authoritative server on
// a fresh network and returns the exchange closure plus the network (so the
// fault benchmarks can install plans on the same setup).
func newExchangeBench(tb testing.TB, disableCache bool) (func(id uint16), *simnet.Network) {
	tb.Helper()
	z, err := zone.New(zone.Config{Apex: dns.MustName("example.com"), Serial: 1})
	if err != nil {
		tb.Fatal(err)
	}
	www := dns.MustName("www.example.com")
	if err := z.Add(dns.RR{
		Name: www, Type: dns.TypeA, Class: dns.ClassIN, TTL: 300,
		Data: &dns.AData{Addr: addr4(192, 0, 2, 80)},
	}); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ksk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		tb.Fatal(err)
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone, rng)
	if err != nil {
		tb.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31, Rand: rng}); err != nil {
		tb.Fatal(err)
	}
	srv, err := authserver.New(authserver.Config{Name: "ns", DisablePacketCache: disableCache}, z)
	if err != nil {
		tb.Fatal(err)
	}
	net := simnet.New()
	client := addr4(10, 0, 0, 1)
	server := addr4(192, 0, 2, 53)
	if err := net.Register(server, "ns.example.com", simnet.RoleSLD, time.Millisecond, srv); err != nil {
		tb.Fatal(err)
	}
	return func(id uint16) {
		q := dns.NewQuery(id, www, dns.TypeA, true)
		resp, err := net.Exchange(client, server, q)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Header.ID != id || len(resp.Answer) == 0 {
			tb.Fatalf("bad response: id=%#x answers=%d", resp.Header.ID, len(resp.Answer))
		}
	}, net
}

// BenchmarkExchange measures one DNSSEC exchange end to end. The "cached"
// variant is the default configuration; "uncached" re-assembles and
// re-encodes the response every query; "reference" additionally takes the
// seed-era full encode/decode on both sides of the wire.
func BenchmarkExchange(b *testing.B) {
	run := func(b *testing.B, disableCache bool) {
		exchange, _ := newExchangeBench(b, disableCache)
		exchange(0) // warm the packet cache and intern table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange(uint16(i))
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, false) })
	b.Run("uncached", func(b *testing.B) { run(b, true) })
	b.Run("reference", func(b *testing.B) {
		simnet.SetReferencePath(true)
		defer simnet.SetReferencePath(false)
		run(b, true)
	})
}

func TestExchangeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	exchange, _ := newExchangeBench(t, false)
	exchange(0) // warm up
	id := uint16(1)
	got := testing.AllocsPerRun(200, func() {
		exchange(id)
		id++
	})
	if got > allocBudgetExchange {
		t.Errorf("one warm exchange = %.1f allocs, budget %d", got, allocBudgetExchange)
	}
}

// cutSynth is a zone.SynthSource of n delegations, every fourth one secure,
// backed by a name map as the universe's TLD source is backed by the
// population index.
type cutSynth struct {
	entries []zone.SynthEntry
	byName  map[dns.Name]zone.SynthEntry
	ns      dns.Name
	ds      *dns.DSData
}

func newCutSynth(tb testing.TB, apex dns.Name, n int) *cutSynth {
	tb.Helper()
	s := &cutSynth{
		byName: make(map[dns.Name]zone.SynthEntry, n),
		ns:     dns.MustName("ns.pool." + string(apex)),
		ds:     &dns.DSData{KeyTag: 4242, Algorithm: 253, DigestType: 2, Digest: []byte{1, 2, 3, 4}},
	}
	s.entries = make([]zone.SynthEntry, n)
	for i := range s.entries {
		kind := zone.SynthCut
		if i%4 == 0 {
			kind = zone.SynthSecureCut
		}
		e := zone.SynthEntry{Name: dns.MustName(fmt.Sprintf("d%07d.%s", i, apex)), Kind: kind}
		s.entries[i] = e
		s.byName[e.Name] = e
	}
	return s
}

func (s *cutSynth) SynthIndex() []zone.SynthEntry {
	return append([]zone.SynthEntry(nil), s.entries...)
}

func (s *cutSynth) SynthLookup(name dns.Name) (zone.SynthEntry, bool) {
	e, ok := s.byName[name]
	return e, ok
}

func (s *cutSynth) SynthRecords(e zone.SynthEntry) ([]dns.RR, error) {
	rrs := []dns.RR{{Name: e.Name, Type: dns.TypeNS, Class: dns.ClassIN, Data: &dns.NSData{Target: s.ns}}}
	if e.Kind == zone.SynthSecureCut {
		rrs = append(rrs, dns.RR{Name: e.Name, Type: dns.TypeDS, Class: dns.ClassIN, Data: s.ds})
	}
	return rrs, nil
}

// BenchmarkZoneReferral measures one DNSSEC referral out of a signed TLD
// zone whose 10^6 delegations come from a SynthSource: the delegation cut
// is found by exact-owner lookups, and the insecure referral adds the NSEC
// that denies the DS. Queries cycle over 4096 delegations so the overlay
// and signature caches stay warm and the lookup itself is what is timed.
func BenchmarkZoneReferral(b *testing.B) {
	const owners, working = 1_000_000, 4096
	apex := dns.MustName("tld")
	z, err := zone.New(zone.Config{Apex: apex, Serial: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ksk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone|dns.DNSKEYFlagSEP, rng)
	if err != nil {
		b.Fatal(err)
	}
	zsk, err := dnssec.GenerateKey(dnssec.AlgFastHMAC, dns.DNSKEYFlagZone, rng)
	if err != nil {
		b.Fatal(err)
	}
	if err := z.Sign(zone.SignConfig{KSK: ksk, ZSK: zsk, Inception: 0, Expiration: 1 << 31, Rand: rng}); err != nil {
		b.Fatal(err)
	}
	src := newCutSynth(b, apex, owners)
	z.AttachSynth(src)

	for _, tc := range []struct {
		name string
		kind zone.SynthKind
	}{{"secure", zone.SynthSecureCut}, {"insecure", zone.SynthCut}} {
		b.Run(tc.name, func(b *testing.B) {
			var qnames []dns.Name
			for i := 0; len(qnames) < working; i += owners / working {
				for src.entries[i].Kind != tc.kind {
					i++
				}
				qnames = append(qnames, dns.MustName("www."+string(src.entries[i].Name)))
			}
			for _, q := range qnames { // sort the index, fill overlay and signatures
				if _, err := z.Lookup(q, dns.TypeA, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := z.Lookup(qnames[i%working], dns.TypeA, true)
				if err != nil || res.Kind != zone.KindReferral {
					b.Fatalf("lookup: %v, %+v", err, res)
				}
			}
		})
	}
}

// BenchmarkColdStart measures what a fresh universe costs before its TLD
// tier has answered everything once, phase by phase: generating the
// population, building the lazy universe, the first .com denial (which
// partitions the domains among the lazy sources and sorts the .com owner
// index, the largest), and one denial from each other TLD (their sorts).
// Each denial is for a name absent from the zone, so the zone must prove
// no names live below it, which forces the sorted index.
func BenchmarkColdStart(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("pop=%d", size), func(b *testing.B) {
			var popT, uniT, firstT, allT time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				pop, err := dataset.AlexaLike(dataset.PopulationConfig{Size: size, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				u, err := universe.Build(universe.Options{Seed: 1, Population: pop, Extra: dataset.SecureDomains()})
				if err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				coldDenial(b, u, "com")
				t3 := time.Now()
				for _, label := range u.TLDLabels() {
					if label != "com" {
						coldDenial(b, u, label)
					}
				}
				t4 := time.Now()
				popT += t1.Sub(t0)
				uniT += t2.Sub(t1)
				firstT += t3.Sub(t2)
				allT += t4.Sub(t3)
			}
			ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
			b.ReportMetric(ms(popT), "population_ms")
			b.ReportMetric(ms(uniT), "universe_ms")
			b.ReportMetric(ms(firstT), "first_referral_ms")
			b.ReportMetric(ms(allT), "all_tlds_ms")
		})
	}
}

// coldDenial asks a TLD's server for a name no population draws (syllable
// labels hold no digits) and expects NXDOMAIN.
func coldDenial(b *testing.B, u *universe.Universe, label string) {
	b.Helper()
	addr, ok := u.TLDAddr(label)
	if !ok {
		b.Fatalf("no TLD %q", label)
	}
	q := dns.NewQuery(1, dns.MustName("cold-start-0."+label), dns.TypeA, true)
	resp, err := u.Net.Exchange(universe.StubAddr, addr, q)
	if err != nil {
		b.Fatal(err)
	}
	if resp.Header.RCode != dns.RCodeNXDomain {
		b.Fatalf("%s denial: rcode %v", label, resp.Header.RCode)
	}
}
