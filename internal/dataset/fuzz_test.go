package dataset

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// FuzzReadTrace drives the streaming trace reader (binary DLVT, NDJSON and
// CSV, sniffed by OpenTrace) with arbitrary bytes. It must never panic, and
// any input that decodes must re-encode in every format and decode back to
// the same per-minute counts.
// Run with `go test -fuzz=FuzzReadTrace ./internal/dataset`.
func FuzzReadTrace(f *testing.F) {
	small := &Trace{PerMinute: []int{100, 250, 90, 0, 4000}}
	for _, format := range []string{FormatBinary, FormatNDJSON, FormatCSV} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, format, small); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-1]) // truncated
	}
	f.Add([]byte("DLVT\x01\xff\xff\xff\xff\x0f"))    // 2^32-1 minutes, none present
	f.Add([]byte("DLVT\x02\x01\x00"))                // unknown version
	f.Add([]byte("DLVT\x01\x02\x01\x03"))            // delta to a negative rate
	f.Add([]byte("{\"m\":0,\"q\":-5}\n"))            // negative rate
	f.Add([]byte("minute,queries\n0,-1,0\n1,7,6\n")) // negative rate in csv
	f.Add([]byte("{\"q\":3}\n2,4\n\n{\"m\":1,\"q\": 9 }\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, q := range got.PerMinute {
			if q < 0 {
				t.Fatalf("decoded a negative rate %d", q)
			}
		}
		for _, format := range []string{FormatBinary, FormatNDJSON, FormatCSV} {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, format, got); err != nil {
				t.Fatalf("%s: re-encode: %v", format, err)
			}
			back, err := ReadTrace(&buf)
			if err != nil {
				t.Fatalf("%s: decode of re-encoding: %v", format, err)
			}
			if !slices.Equal(back.PerMinute, got.PerMinute) {
				t.Fatalf("%s: round trip %v != %v", format, back.PerMinute, got.PerMinute)
			}
		}
	})
}

// FuzzLoadRanked feeds arbitrary text to the ranked-list loader. It must
// never panic, and every domain it loads must be a valid two-label name
// that Lookup finds at its own rank.
// Run with `go test -fuzz=FuzzLoadRanked ./internal/dataset`.
func FuzzLoadRanked(f *testing.F) {
	f.Add(goldenList)
	f.Add(sampleList)
	f.Add("1,a.b\n2,A.B.\n3,c.a.b\n")
	f.Add("1,\n2,.\n3,com\n4,..\n5,a..b\n")
	f.Add("#only a comment\n\n")
	f.Add("1,bad_label!.com\n")
	f.Add("x,y,z,*.wild.example\n_srv._tcp.example.org\n")
	f.Add(strings.Repeat("a", 70) + ".com\n")

	f.Fuzz(func(t *testing.T, list string) {
		pop, err := LoadRanked(strings.NewReader(list), Rates{}, 1)
		if err != nil {
			return
		}
		for i := range pop.Domains {
			d := &pop.Domains[i]
			if n, err := dns.MakeName(string(d.Name)); err != nil || n != d.Name {
				t.Fatalf("loaded invalid name %q (%v)", d.Name, err)
			}
			if d.Name.LabelCount() != 2 {
				t.Fatalf("loaded %s with %d labels", d.Name, d.Name.LabelCount())
			}
			if d.Rank != i+1 {
				t.Fatalf("%s at index %d has rank %d", d.Name, i, d.Rank)
			}
			if got, ok := pop.Lookup(d.Name); !ok || got != d {
				t.Fatalf("Lookup(%s) = %p, %t; want %p", d.Name, got, ok, d)
			}
		}
	})
}
