package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// popDigest hashes every Domain field and every TLD of a population in
// order, so any change to the generator's output — a name, a flag, a rank,
// an RNG call moved — changes the digest.
func popDigest(p *Population) string {
	h := sha256.New()
	str := func(s string) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	flag := func(b bool) byte {
		if b {
			return 1
		}
		return 0
	}
	for _, d := range p.Domains {
		str(string(d.Name))
		str(d.TLD)
		var rank [8]byte
		binary.BigEndian.PutUint64(rank[:], uint64(d.Rank))
		h.Write([]byte{flag(d.Signed), flag(d.DSInParent), flag(d.InDLV)})
		h.Write(rank[:])
	}
	for _, t := range p.TLDs {
		str(t.Label)
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], math.Float64bits(t.Weight))
		h.Write([]byte{flag(t.Signed)})
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenList exercises every LoadRanked path: CSV and bare lines, comments
// and blanks, duplicates before and after SLD reduction, hyphenated and
// digit-bearing labels, upper case, trailing dots, and bare TLDs.
const goldenList = `# rank,domain
1,google.com
2,YouTube.com.
3,www.facebook.com
4,images.google.com
5,my-site.co.uk

bare-domain.net
7 , spaced.org
8,a.b.c.d.example-1.de
9,xn--bcher-kva.ch
# a comment mid-list
10,google.com
11,youtube.com
12,com
13,deep.sub.my-site.co.uk
14,_service.test.io
15,2nd-level.gov
`

// The digests below were recorded from the generator before it was
// rewritten to assemble names in a reused buffer and index them by
// position; they pin the population bit for bit.
func TestPopulationGolden(t *testing.T) {
	for _, tc := range []struct {
		size int
		seed int64
		want string
	}{
		{1000, 1, "6a0db2e84ec5fd4ce3192c1fe7303456c4a75989145cf9083f8b3e6eac2db516"},
		{100000, 1, "ffa685e5bacfab7323f58e8d2147bb09508f9c5af2cb658d179e41c7c25d0880"},
		{100000, 7, "88c626dd19aac79a0cf13ab56fae134dc6e5815d5c112a525f6162308e2e0290"},
	} {
		pop, err := AlexaLike(PopulationConfig{Size: tc.size, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := popDigest(pop); got != tc.want {
			t.Errorf("AlexaLike(%d, %d) digest = %s, want %s", tc.size, tc.seed, got, tc.want)
		}
		checkLookupIdentity(t, pop)
		if tc.size >= 100000 && renamedCount(pop) == 0 {
			t.Errorf("AlexaLike(%d, %d) renamed no duplicate; the golden misses that path", tc.size, tc.seed)
		}
	}

	pop, err := LoadRanked(strings.NewReader(goldenList), Rates{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const wantLoaded = "02ec7b69e32470c632c3aa6690014e84cf7e7749b8ec838ea9185566074d5122"
	if got := popDigest(pop); got != wantLoaded {
		t.Errorf("LoadRanked digest = %s, want %s", got, wantLoaded)
	}
	checkLookupIdentity(t, pop)
}

// checkLookupIdentity asserts Lookup returns the population's own entry
// (not a copy) for every domain, renamed duplicates included.
func checkLookupIdentity(t *testing.T, pop *Population) {
	t.Helper()
	for i := range pop.Domains {
		d, ok := pop.Lookup(pop.Domains[i].Name)
		if !ok || d != &pop.Domains[i] {
			t.Fatalf("Lookup(%s) = %p, %t; want &Domains[%d] = %p",
				pop.Domains[i].Name, d, ok, i, &pop.Domains[i])
		}
	}
}

// renamedCount counts generated names whose label carries the rank suffix
// a duplicate draw gets (syllable labels hold no digits otherwise).
func renamedCount(pop *Population) int {
	n := 0
	for _, d := range pop.Domains {
		if strings.ContainsAny(string(d.Name), "0123456789") {
			n++
		}
	}
	return n
}
