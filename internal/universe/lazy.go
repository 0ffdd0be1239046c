package universe

// Lazy universe materialization. The default Build precomputes only the
// root, the TLD zone shells, and the registry shell; every per-domain
// artifact — TLD delegations and glue, parent-side DS records, DLV deposits
// — is derived on first query through zone.SynthSource implementations.
// All derivations are pure functions of (seed, population), so the lazy
// universe serves byte-identical wire responses to the eager one
// (TestLazyEagerEquivalence) while Build cost is O(TLDs), not O(population).

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/dnsprivacy/lookaside/internal/dataset"
	"github.com/dnsprivacy/lookaside/internal/dlv"
	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/dnssec"
	"github.com/dnsprivacy/lookaside/internal/zone"
)

// lookupDomain resolves a name to its domain spec: extras first (they
// override population entries of the same name, as the eager index did),
// then the population.
func (u *Universe) lookupDomain(name dns.Name) (*dataset.Domain, bool) {
	if d, ok := u.extras[name]; ok {
		return d, true
	}
	return u.opts.Population.Lookup(name)
}

// eachDomain visits every domain exactly once — the population with extras
// overriding same-name entries, then the extras — stopping on error.
func (u *Universe) eachDomain(fn func(*dataset.Domain) error) error {
	for i := range u.opts.Population.Domains {
		d := &u.opts.Population.Domains[i]
		if _, ok := u.extras[d.Name]; ok {
			continue
		}
		if err := fn(d); err != nil {
			return err
		}
	}
	for _, d := range u.extras {
		if err := fn(d); err != nil {
			return err
		}
	}
	return nil
}

// lazyParts is the domain set split among the lazy sources: the children of
// each TLD and the DLV depositors, each in eachDomain order.
type lazyParts struct {
	once       sync.Once
	children   map[string][]*dataset.Domain
	depositors []*dataset.Domain
}

// parts partitions the domains for every lazy source in one eachDomain pass
// the first time any source needs its share; later calls return the same
// partition. Safe from concurrent callers.
func (u *Universe) parts() *lazyParts {
	p := &u.lazy
	p.once.Do(func() {
		p.children = make(map[string][]*dataset.Domain)
		_ = u.eachDomain(func(d *dataset.Domain) error {
			p.children[d.TLD] = append(p.children[d.TLD], d)
			if d.InDLV && d.Signed {
				p.depositors = append(p.depositors, d)
			}
			return nil
		})
	})
	return p
}

// tldSynth derives one TLD zone's delegation universe: a cut per child
// domain (with DS when the chain reaches the parent) and one glue address
// per hosting pool the TLD's children use.
type tldSynth struct {
	u      *Universe
	label  string
	signed bool

	once    sync.Once
	entries []zone.SynthEntry
	glue    map[dns.Name]zone.SynthEntry // pool NS name -> its glue entry
}

// build indexes the TLD's children and the pool glue they need in one pass
// over its share of the domains; safe under the zone lock and from
// concurrent callers.
func (s *tldSynth) build() {
	children := s.u.parts().children[s.label]
	pools := make(map[int]bool)
	s.entries = make([]zone.SynthEntry, 0, len(children)+s.u.hostPools)
	for _, d := range children {
		pools[s.u.pool(d.Name)] = true
		s.entries = append(s.entries, s.cutEntry(d))
	}
	s.glue = make(map[dns.Name]zone.SynthEntry, len(pools))
	for p := range pools {
		// poolNSName cannot fail for a label that already formed a zone apex.
		if name, err := poolNSName(p, s.label); err == nil {
			e := zone.SynthEntry{Name: name, Kind: zone.SynthGlue, Aux: uint32(p)}
			s.glue[name] = e
			s.entries = append(s.entries, e)
		}
	}
}

// cutEntry returns the delegation entry of a child domain of this TLD.
func (s *tldSynth) cutEntry(d *dataset.Domain) zone.SynthEntry {
	kind := zone.SynthCut
	if d.Signed && d.DSInParent && s.signed {
		kind = zone.SynthSecureCut
	}
	return zone.SynthEntry{Name: d.Name, Kind: kind}
}

// SynthIndex implements zone.SynthSource. The index is the complete child
// set of the TLD — independent of query order, so NSEC chain arithmetic in
// the zone is exact from the first query.
func (s *tldSynth) SynthIndex() []zone.SynthEntry {
	s.once.Do(s.build)
	return s.entries
}

// SynthLookup implements zone.SynthSource: children come straight from the
// domain spec, pool glue from the set the index pass collected.
func (s *tldSynth) SynthLookup(name dns.Name) (zone.SynthEntry, bool) {
	if d, ok := s.u.lookupDomain(name); ok {
		if d.TLD != s.label {
			return zone.SynthEntry{}, false
		}
		return s.cutEntry(d), true
	}
	s.once.Do(s.build)
	e, ok := s.glue[name]
	return e, ok
}

// SynthRecords implements zone.SynthSource. NS and DS records carry TTL 0
// so the zone fills its default, exactly as Delegate and AttachDS do on the
// eager path; glue carries the root-style 172800 the eager path sets.
func (s *tldSynth) SynthRecords(e zone.SynthEntry) ([]dns.RR, error) {
	if e.Kind == zone.SynthGlue {
		return []dns.RR{{
			Name: e.Name, Type: dns.TypeA, Class: dns.ClassIN, TTL: 172800,
			Data: &dns.AData{Addr: poolAddr(int(e.Aux))},
		}}, nil
	}
	nsName, err := poolNSName(s.u.pool(e.Name), s.label)
	if err != nil {
		return nil, err
	}
	rrs := []dns.RR{{
		Name: e.Name, Type: dns.TypeNS, Class: dns.ClassIN,
		Data: &dns.NSData{Target: nsName},
	}}
	if e.Kind == zone.SynthSecureCut {
		k, err := s.u.genKeys(e.Name)
		if err != nil {
			return nil, err
		}
		if s.u.corruptDS[e.Name] {
			// Failure injection: a DS for a key the zone does not hold,
			// breaking the chain into a bogus outcome (as on the eager path).
			if k, err = s.u.genKeys(dns.MustName("evil.invalid")); err != nil {
				return nil, err
			}
		}
		ds, err := s.u.dsFor(e.Name, k)
		if err != nil {
			return nil, err
		}
		rrs = append(rrs, dns.RR{
			Name: e.Name, Type: dns.TypeDS, Class: dns.ClassIN, Data: ds,
		})
	}
	return rrs, nil
}

// regSynth derives the registry's deposit set: one DLV record per signed,
// in-DLV domain, owned by its look-aside name. It doubles as the registry's
// dlv.DepositIndex, answering deposit membership straight from the domain
// spec without materializing anything.
type regSynth struct {
	u *Universe

	once    sync.Once
	entries []zone.SynthEntry
	owners  map[dns.Name]dns.Name // look-aside owner -> depositing domain
	count   int
}

// build indexes the deposit owners once; safe under zone lock and from
// concurrent Signaler callers alike.
func (s *regSynth) build() {
	apex := s.u.RegistryZone
	hashed := s.u.opts.RegistryHashed
	depositors := s.u.parts().depositors
	s.owners = make(map[dns.Name]dns.Name, len(depositors))
	for _, d := range depositors {
		owner, err := dlv.LookasideName(d.Name, apex, hashed)
		if err != nil {
			continue // an undepositable name would have failed eager Build too
		}
		s.owners[owner] = d.Name
		s.entries = append(s.entries, depositEntry(owner))
		s.count++
	}
}

// depositEntry is the index entry of one look-aside owner.
func depositEntry(owner dns.Name) zone.SynthEntry {
	return zone.SynthEntry{Name: owner, Kind: zone.SynthLeaf, Aux: uint32(dns.TypeDLV)}
}

// SynthIndex implements zone.SynthSource.
func (s *regSynth) SynthIndex() []zone.SynthEntry {
	s.once.Do(s.build)
	return s.entries
}

// SynthLookup implements zone.SynthSource.
func (s *regSynth) SynthLookup(name dns.Name) (zone.SynthEntry, bool) {
	s.once.Do(s.build)
	if _, ok := s.owners[name]; !ok {
		return zone.SynthEntry{}, false
	}
	return depositEntry(name), true
}

// SynthRecords implements zone.SynthSource.
func (s *regSynth) SynthRecords(e zone.SynthEntry) ([]dns.RR, error) {
	s.once.Do(s.build)
	domain, ok := s.owners[e.Name]
	if !ok {
		return nil, fmt.Errorf("universe: no deposit behind %s", e.Name)
	}
	k, err := s.u.genKeys(domain)
	if err != nil {
		return nil, err
	}
	rec, err := dnssec.MakeDLV(domain, k.ksk.Public(), dnssec.DigestSHA256)
	if err != nil {
		return nil, fmt.Errorf("universe: dlv record for %s: %w", domain, err)
	}
	return []dns.RR{{
		Name: e.Name, Type: dns.TypeDLV, Class: dns.ClassIN, TTL: 3600, Data: rec,
	}}, nil
}

// HasDeposit implements dlv.DepositIndex from the domain spec alone — no
// index build, so remedy-signal checks stay O(1) at any population size.
func (s *regSynth) HasDeposit(domain dns.Name) bool {
	d, ok := s.u.lookupDomain(domain)
	return ok && d.InDLV && d.Signed
}

// DepositCount implements dlv.DepositIndex.
func (s *regSynth) DepositCount() int {
	s.once.Do(s.build)
	return s.count
}

// sldCache memoizes lazily built SLD zones with singleflight semantics:
// concurrent first queries for the same apex build the zone exactly once,
// and other apexes never wait on that build. Entries are evicted (done ones
// only) at a per-shard cap; zones rebuild cheaply and deterministically.
const sldShardCount = 16

type sldCache struct {
	capPerShard int
	shards      [sldShardCount]sldShard
}

type sldShard struct {
	mu      sync.Mutex
	entries map[dns.Name]*sldEntry
}

type sldEntry struct {
	once sync.Once
	z    *zone.Zone
	err  error
	done atomic.Bool
}

func newSLDCache(cap int) *sldCache {
	per := cap / sldShardCount
	if per < 1 {
		per = 1
	}
	c := &sldCache{capPerShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[dns.Name]*sldEntry)
	}
	return c
}

// get returns the zone for name, building it at most once concurrently.
// The build runs outside the shard lock, so a slow build (signing a fresh
// zone) blocks only callers of the same apex.
func (c *sldCache) get(name dns.Name, build func() (*zone.Zone, error)) (*zone.Zone, error) {
	sh := &c.shards[hash64(string(name))%sldShardCount]
	sh.mu.Lock()
	e, ok := sh.entries[name]
	if !ok {
		if len(sh.entries) >= c.capPerShard {
			for k, old := range sh.entries {
				if old.done.Load() {
					delete(sh.entries, k)
					break
				}
			}
		}
		e = &sldEntry{}
		sh.entries[name] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		e.z, e.err = build()
		e.done.Store(true)
	})
	return e.z, e.err
}

// len counts cached zones across shards.
func (c *sldCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}
