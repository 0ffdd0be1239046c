package universe

import (
	"fmt"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// checkLookupAgrees asserts the zone.SynthSource contract: every index entry
// comes back from SynthLookup with the same Kind and Aux, and each probe
// outside the index is refused.
func checkLookupAgrees(t *testing.T, src zone.SynthSource, misses []dns.Name) map[dns.Name]bool {
	t.Helper()
	inIndex := make(map[dns.Name]bool)
	for _, want := range src.SynthIndex() {
		inIndex[want.Name] = true
		got, ok := src.SynthLookup(want.Name)
		if !ok || got != want {
			t.Errorf("SynthLookup(%s) = %+v, %t; index has %+v", want.Name, got, ok, want)
		}
	}
	for _, n := range misses {
		if inIndex[n] {
			t.Fatalf("probe %s is in the index; not a near-miss", n)
		}
		if e, ok := src.SynthLookup(n); ok {
			t.Errorf("SynthLookup(%s) = %+v for a name outside the index", n, e)
		}
	}
	return inIndex
}

// TestSynthLookupAgreesWithIndex pins SynthLookup of both universe sources
// against their SynthIndex, for the plain and the hashed registry, with an
// extra overriding a population entry and a corrupt-DS domain in the mix.
func TestSynthLookupAgreesWithIndex(t *testing.T) {
	for _, hashed := range []bool{false, true} {
		t.Run(fmt.Sprintf("hashed=%t", hashed), func(t *testing.T) {
			var override dataset.Domain
			corrupt := dataset.SecureDomains()[0].Name // chained: has a DS slot to corrupt
			u := buildTestUniverse(t, func(o *Options) {
				o.RegistryHashed = hashed
				for _, d := range o.Population.Domains {
					if !d.Signed && forcedSignedTLDs[d.TLD] {
						override = d
						break
					}
				}
				if override.Name == "" {
					t.Fatal("population lacks an unsigned domain under a signed TLD")
				}
				// The extra turns an unsigned population domain into a
				// chained, deposited one; lookups must see the extra.
				override.Signed, override.DSInParent, override.InDLV = true, true, true
				o.Extra = append(append([]dataset.Domain(nil), o.Extra...), override)
				o.CorruptDS = []dns.Name{corrupt}
			})

			var domains []dns.Name
			_ = u.eachDomain(func(d *dataset.Domain) error {
				domains = append(domains, d.Name)
				return nil
			})

			for label := range u.tlds {
				for _, signed := range []bool{false, true} {
					src := &tldSynth{u: u, label: label, signed: signed}
					misses := []dns.Name{
						dns.MustName("nic." + label),
						dns.MustName(fmt.Sprintf("pool%d.nic.%s", u.hostPools, label)),
					}
					inIndex := checkLookupAgrees(t, src, misses)
					// A population name asked of the wrong TLD is refused.
					for _, n := range domains {
						if _, ok := src.SynthLookup(n); ok != inIndex[n] {
							t.Errorf("tld %s: SynthLookup(%s) = %t, index membership %t", label, n, ok, inIndex[n])
						}
					}
				}
			}

			for _, n := range []dns.Name{override.Name, corrupt} {
				d, _ := u.lookupDomain(n)
				tld := &tldSynth{u: u, label: d.TLD, signed: true}
				if e, ok := tld.SynthLookup(n); !ok || e.Kind != zone.SynthSecureCut {
					t.Errorf("%s = %+v, %t; want a secure cut", n, e, ok)
				}
			}

			reg := &regSynth{u: u}
			var misses []dns.Name
			for _, n := range domains {
				if d, _ := u.lookupDomain(n); d.InDLV && d.Signed {
					continue
				}
				owner, err := dlv.LookasideName(n, u.RegistryZone, hashed)
				if err != nil {
					t.Fatal(err)
				}
				misses = append(misses, owner)
			}
			if len(misses) == 0 {
				t.Fatal("every domain deposited; no look-aside near-miss to probe")
			}
			inIndex := checkLookupAgrees(t, reg, misses)
			owner, err := dlv.LookasideName(override.Name, u.RegistryZone, hashed)
			if err != nil {
				t.Fatal(err)
			}
			if !inIndex[owner] {
				t.Errorf("overriding extra %s made no deposit at %s", override.Name, owner)
			}
		})
	}
}
