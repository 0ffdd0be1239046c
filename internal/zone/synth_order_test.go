package zone_test

import (
	"sort"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/universe"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// orderList holds names whose canonical order the packed-key sort could get
// wrong if its terminator or tie-break were off: a label against the same
// label plus a hyphen, labels of 16 bytes and more sharing their first 16,
// digit and hyphen runs, names that only reduce to their SLD, and SLDs that
// extend "nic", the label every pool glue name ("poolN.nic.<tld>") carries.
const orderList = `ab.com
nica.com
nic-.com
nicz.net
nic0.org
ab-.com
ab-c.com
a-b.com
a.com
b.com
ba.com
abcdefghijklmnop.com
abcdefghijklmnopq.com
abcdefghijklmnopqrst.com
abcdefghijklmnopqrsu.com
abcdefghijklmnopqrstuvwxyz-0123456789.com
abcdefghijklmnopqrstuvwxyz-012345678.com
0.com
0-0.com
xn--bcher-kva.com
www.deep.sub.zz-top.com
my-very-long-shared-prefix-one.net
my-very-long-shared-prefix-two.net
my-very-long-shared-prefix.net
a.net
secure-site.org
securesite.org
secure00.edu
secure-00.edu
`

// TestSynthIndexCanonicalOrder forces every lazy source's sort through NSEC
// arithmetic (a name-error lookup must prove nothing lives below the qname)
// and checks that each zone's index equals the same entries sorted with
// CanonicalLess: the packed-key sort and the label walk agree.
func TestSynthIndexCanonicalOrder(t *testing.T) {
	pop, err := dataset.LoadRanked(strings.NewReader(orderList), dataset.Rates{
		TLDSigned: 1, SLDSigned: 0.5, DSGivenSigned: 0.5,
		DepositGivenIsland: 1, DepositGivenChained: 0.5,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := universe.Build(universe.Options{Seed: 1, Population: pop, Extra: dataset.SecureDomains()})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, z := range u.InfraZones() {
		if !z.HasSynth() {
			continue
		}
		qname, err := z.Apex().Prepend("no-such-name-0")
		if err != nil {
			t.Fatal(err)
		}
		res, err := z.Lookup(qname, dns.TypeA, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != zone.KindNXDomain {
			t.Fatalf("%s: lookup kind %v, want NXDOMAIN", qname, res.Kind)
		}
		got := z.SortedSynthIndex()
		if got == nil {
			t.Fatalf("%s: denial did not sort the synth index", z.Apex())
		}
		want := append([]zone.SynthEntry(nil), got...)
		sort.Slice(want, func(i, j int) bool { return dns.CanonicalLess(want[i].Name, want[j].Name) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: index[%d] = %s, want %s", z.Apex(), i, got[i].Name, want[i].Name)
			}
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("checked %d synth-backed zones, want every TLD and the registry", checked)
	}
}
