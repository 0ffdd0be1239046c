package zone

// Lazy owner-name materialization. A SynthSource extends a zone with a
// (possibly very large) universe of owner names whose records are derivable
// on demand: the source publishes the complete owner index up front —
// so existence checks, delegation cuts, and NSEC chain arithmetic are exact
// and independent of which names have been touched — while the records
// themselves (NS/DS sets, glue addresses, DLV deposits) are computed only
// when a query first needs them. A paper-scale TLD zone with a million
// delegations costs one index, not a million RRsets.
//
// Materialized records live in a bounded overlay that never contributes to
// the zone generation counter: a synth-backed zone serves byte-identical
// responses before and after any record is materialized, so authoritative
// packet caches (keyed on Generation) stay valid across materializations.

import (
	"fmt"
	"sort"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// SynthKind classifies a synthesized owner name; it determines the record
// types present at the name (the NSEC type bitmap) before materialization.
type SynthKind uint8

// Synthesized owner kinds.
const (
	// SynthCut is an unsigned delegation point: NS only.
	SynthCut SynthKind = iota + 1
	// SynthSecureCut is a delegation with a DS deposit: NS + DS.
	SynthSecureCut
	// SynthGlue is an in-zone name-server address record: A only.
	SynthGlue
	// SynthLeaf is an authoritative leaf RRset of a single type (Aux-typed),
	// e.g. a DLV deposit in the look-aside registry.
	SynthLeaf
)

// SynthEntry names one synthesized owner. Aux is opaque to the zone; sources
// use it to carry derivation context (a hosting-pool index, a record type).
type SynthEntry struct {
	Name dns.Name
	Kind SynthKind
	Aux  uint32
}

// SynthSource derives zone content on demand.
//
// SynthIndex returns every synthesized owner name exactly once, in any
// order. The zone sorts it by packed canonical key (dns.CanonicalPrefix,
// ties broken by CanonicalCompare) and memoizes it on the first query that
// needs chain order (NSEC successor and predecessor, descendant checks),
// under the zone lock, so the call must be deterministic but need not be
// cheap. The zone may sort the returned slice in place. Names must not
// collide with static zone content and must not nest under one another or
// under static cuts.
//
// SynthLookup answers the exact-owner question — is name a synthesized owner,
// and of which kind — on every lookup, so it must be cheap (a map probe, not
// a search). It must agree with SynthIndex: it returns true exactly for the
// names SynthIndex lists, with the same Kind and Aux. It may be called
// concurrently and before SynthIndex.
//
// SynthRecords returns the full record set owned by e.Name. Types must match
// e.Kind (SynthCut: NS; SynthSecureCut: NS+DS; SynthGlue: A; SynthLeaf: the
// Aux type). A zero TTL is filled with the zone default, mirroring Add and
// Delegate. The result must be deterministic: the overlay is bounded and an
// evicted name is re-derived on its next query.
type SynthSource interface {
	SynthIndex() []SynthEntry
	SynthLookup(name dns.Name) (SynthEntry, bool)
	SynthRecords(e SynthEntry) ([]dns.RR, error)
}

// synthOverlayCap bounds the materialized-record overlay (owner names). Like
// sigCacheCap, it trades re-derivation for bounded memory at paper scale;
// the reset is wholesale because entries rebuild deterministically.
const synthOverlayCap = 1 << 17

// AttachSynth installs a lazy record source, replacing any earlier one along
// with its sorted index and materialized overlay. It counts as one content
// mutation (the zone's served universe changes); subsequent materializations
// do not change the generation.
func (z *Zone) AttachSynth(src SynthSource) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.gen++
	z.synth = src
	z.synthIdx, z.synthSorted = nil, false
	z.resetOverlayLocked()
}

// resetOverlayLocked empties the materialized-record overlay.
func (z *Zone) resetOverlayLocked() {
	z.synthRecords = make(map[dns.Key][]dns.RR)
	z.synthDone = make(map[dns.Name]bool)
}

// HasSynth reports whether a lazy record source is attached.
func (z *Zone) HasSynth() bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.synth != nil
}

// MaterializedNames returns how many synthesized owners currently hold
// records in the overlay (tests and memory introspection).
func (z *Zone) MaterializedNames() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return len(z.synthDone)
}

// synthEnsureLocked sorts and memoizes the owner index on first use. Only
// chain-order questions need it; exact-owner questions go to SynthLookup.
func (z *Zone) synthEnsureLocked() {
	if z.synthSorted || z.synth == nil {
		return
	}
	idx := z.synth.SynthIndex()
	sortCanonical(idx, func(e SynthEntry) dns.Name { return e.Name })
	z.synthIdx = idx
	z.synthSorted = true
}

// synthAtLocked returns the synthesized owner entry of name, if any.
func (z *Zone) synthAtLocked(name dns.Name) (SynthEntry, bool) {
	if z.synth == nil {
		return SynthEntry{}, false
	}
	return z.synth.SynthLookup(name)
}

// synthHasDescendantLocked reports whether a synthesized owner exists
// strictly below qname (canonical order puts descendants right after their
// ancestor, as in hasDescendantLocked).
func (z *Zone) synthHasDescendantLocked(qname dns.Name) bool {
	if z.synth == nil {
		return false
	}
	z.synthEnsureLocked()
	i := sort.Search(len(z.synthIdx), func(i int) bool {
		return !dns.CanonicalLess(z.synthIdx[i].Name, qname)
	})
	if i < len(z.synthIdx) && z.synthIdx[i].Name == qname {
		i++
	}
	return i < len(z.synthIdx) && z.synthIdx[i].Name.IsSubdomainOf(qname)
}

// types reports the record types present at an entry of this kind.
func (k SynthKind) types(aux uint32) []dns.Type {
	switch k {
	case SynthCut:
		return []dns.Type{dns.TypeNS}
	case SynthSecureCut:
		return []dns.Type{dns.TypeNS, dns.TypeDS}
	case SynthGlue:
		return []dns.Type{dns.TypeA}
	case SynthLeaf:
		return []dns.Type{dns.Type(aux)}
	}
	return nil
}

// isCut reports whether the entry is a delegation point.
func (k SynthKind) isCut() bool { return k == SynthCut || k == SynthSecureCut }

// synthMaterializeLocked derives and stores the records owned by e.
func (z *Zone) synthMaterializeLocked(e SynthEntry) error {
	if z.synthDone[e.Name] {
		return nil
	}
	rrs, err := z.synth.SynthRecords(e)
	if err != nil {
		return fmt.Errorf("zone %s: materializing %s: %w", z.apex, e.Name, err)
	}
	if len(z.synthDone) >= synthOverlayCap {
		z.resetOverlayLocked()
	}
	for _, rr := range rrs {
		if rr.TTL == 0 {
			rr.TTL = z.ttl
		}
		key := rr.Key()
		z.synthRecords[key] = append(z.synthRecords[key], rr)
	}
	z.synthDone[e.Name] = true
	return nil
}

// Merged static+synth primitives. Lookup and the NSEC chain operate on the
// union of the two owner universes through these.

// existsLocked reports whether name owns records (static or synthesized).
func (z *Zone) existsLocked(name dns.Name) bool {
	if z.nameSet[name] {
		return true
	}
	_, ok := z.synthAtLocked(name)
	return ok
}

// isCutLocked reports whether name is a delegation point.
func (z *Zone) isCutLocked(name dns.Name) bool {
	if z.cuts[name] {
		return true
	}
	e, ok := z.synthAtLocked(name)
	return ok && e.Kind.isCut()
}

// rrsetLocked returns the records of (name, type), materializing synthesized
// content when needed. A nil set with nil error means the type is absent.
func (z *Zone) rrsetLocked(name dns.Name, typ dns.Type) ([]dns.RR, error) {
	key := dns.Key{Name: name, Type: typ, Class: dns.ClassIN}
	if rrset, ok := z.records[key]; ok {
		return rrset, nil
	}
	if z.synth == nil {
		return nil, nil
	}
	e, ok := z.synthAtLocked(name)
	if !ok || !dns.HasType(e.Kind.types(e.Aux), typ) {
		return nil, nil
	}
	if err := z.synthMaterializeLocked(e); err != nil {
		return nil, err
	}
	return z.synthRecords[key], nil
}

// mergedTypesAtLocked returns a copy of the types present at owner across
// both universes (the NSEC type bitmap). Static and synthesized owners never
// coincide, so one side is always empty.
func (z *Zone) mergedTypesAtLocked(owner dns.Name) []dns.Type {
	if src := z.typesByName[owner]; len(src) > 0 {
		types := make([]dns.Type, len(src))
		copy(types, src)
		return types
	}
	if e, ok := z.synthAtLocked(owner); ok {
		return e.Kind.types(e.Aux)
	}
	return nil
}

// mergedVisibleLocked extends visibleLocked across synthesized cuts.
func (z *Zone) mergedVisibleLocked(name dns.Name) bool {
	for n := name.Parent(); n != z.apex && !n.IsRoot(); n = n.Parent() {
		if z.isCutLocked(n) {
			return false
		}
	}
	return true
}

// staticAfterLocked returns the first visible static owner strictly after
// name in canonical order.
func (z *Zone) staticAfterLocked(name dns.Name) (dns.Name, bool) {
	z.ensureSortedLocked()
	i := sort.Search(len(z.names), func(i int) bool {
		return dns.CanonicalCompare(z.names[i], name) > 0
	})
	for ; i < len(z.names); i++ {
		if z.mergedVisibleLocked(z.names[i]) {
			return z.names[i], true
		}
	}
	return "", false
}

// staticBeforeLocked returns the last visible static owner strictly before
// name in canonical order.
func (z *Zone) staticBeforeLocked(name dns.Name) (dns.Name, bool) {
	z.ensureSortedLocked()
	i := sort.Search(len(z.names), func(i int) bool {
		return !dns.CanonicalLess(z.names[i], name)
	})
	for i--; i >= 0; i-- {
		if z.mergedVisibleLocked(z.names[i]) {
			return z.names[i], true
		}
	}
	return "", false
}

// synthAfterLocked and synthBeforeLocked are the synthesized-index analogues.
func (z *Zone) synthAfterLocked(name dns.Name) (dns.Name, bool) {
	if z.synth == nil {
		return "", false
	}
	z.synthEnsureLocked()
	i := sort.Search(len(z.synthIdx), func(i int) bool {
		return dns.CanonicalCompare(z.synthIdx[i].Name, name) > 0
	})
	for ; i < len(z.synthIdx); i++ {
		if z.mergedVisibleLocked(z.synthIdx[i].Name) {
			return z.synthIdx[i].Name, true
		}
	}
	return "", false
}

func (z *Zone) synthBeforeLocked(name dns.Name) (dns.Name, bool) {
	if z.synth == nil {
		return "", false
	}
	z.synthEnsureLocked()
	i := sort.Search(len(z.synthIdx), func(i int) bool {
		return !dns.CanonicalLess(z.synthIdx[i].Name, name)
	})
	for i--; i >= 0; i-- {
		if z.mergedVisibleLocked(z.synthIdx[i].Name) {
			return z.synthIdx[i].Name, true
		}
	}
	return "", false
}
