package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	trace, err := GenerateTrace(TraceConfig{Minutes: 97, Seed: 5, MinRate: 1600, MaxRate: 3600})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{FormatCSV, FormatNDJSON, FormatBinary} {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteTrace(&buf, format, trace); err != nil {
				t.Fatal(err)
			}
			got, err := ReadTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.PerMinute) != len(trace.PerMinute) {
				t.Fatalf("minutes %d != %d", len(got.PerMinute), len(trace.PerMinute))
			}
			for i := range got.PerMinute {
				if got.PerMinute[i] != trace.PerMinute[i] {
					t.Fatalf("minute %d: %d != %d", i, got.PerMinute[i], trace.PerMinute[i])
				}
			}
		})
	}
}

func TestTraceBinaryIsCompact(t *testing.T) {
	trace, err := GenerateTrace(DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var bin, csv bytes.Buffer
	if err := WriteTrace(&bin, FormatBinary, trace); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&csv, FormatCSV, trace); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= csv.Len()/4 {
		t.Errorf("binary trace %d B not compact vs csv %d B", bin.Len(), csv.Len())
	}
}

func TestTraceReaderStreams(t *testing.T) {
	trace := &Trace{PerMinute: []int{10, 20, 15}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, FormatBinary, trace); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trace.PerMinute {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("minute %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("minute %d: %d != %d", i, got, want)
		}
	}
	if _, err := tr.Next(); err == nil {
		t.Fatal("no EOF after last minute")
	}
}

func TestTraceReaderErrors(t *testing.T) {
	// Truncated binary payload.
	trace := &Trace{PerMinute: []int{100, 200}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, FormatBinary, trace); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadTrace(bytes.NewReader(short)); err == nil {
		t.Error("truncated binary trace accepted")
	}
	// Garbage CSV.
	if _, err := ReadTrace(strings.NewReader("minute,queries,cumulative\n0,notanumber,0\n")); err == nil {
		t.Error("garbage csv accepted")
	}
	// NDJSON missing the q field.
	if _, err := ReadTrace(strings.NewReader("{\"m\":0}\n")); err == nil {
		t.Error("ndjson without q accepted")
	}
	// Negative rates are malformed in every format, never a skipped line.
	for _, in := range []string{"{\"m\":0,\"q\":-5}\n", "minute,queries,cumulative\n0,-1,0\n1,7,6\n"} {
		if got, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("negative rate in %q accepted as %v", in, got.PerMinute)
		}
	}
	// Unknown write format.
	if err := WriteTrace(&bytes.Buffer{}, "xml", trace); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestTraceReaderAcceptsTracegenCSV(t *testing.T) {
	// The exact shape cmd/tracegen has always emitted.
	in := "minute,queries,cumulative\n0,100,100\n1,250,350\n"
	got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.PerMinute) != 2 || got.PerMinute[0] != 100 || got.PerMinute[1] != 250 {
		t.Fatalf("parsed %v", got.PerMinute)
	}
}
