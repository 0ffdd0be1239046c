package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace file formats. cmd/tracegen writes them; the load generator streams
// them back one minute at a time, so a full-scale DITL trace (hundreds of
// minutes, ~93M queries) never has to materialize in the replayer's memory.
//
//   - FormatCSV: the original "minute,queries,cumulative" rows.
//   - FormatNDJSON: one {"m":<minute>,"q":<queries>} object per line.
//   - FormatBinary: "DLVT" magic, a version byte, then one uvarint of the
//     minute count followed by one varint delta per minute (rates are
//     band-limited, so deltas stay small; a 420-minute trace is ~1 KB).
const (
	FormatCSV    = "csv"
	FormatNDJSON = "ndjson"
	FormatBinary = "bin"
)

// traceMagic identifies a binary trace file.
var traceMagic = [4]byte{'D', 'L', 'V', 'T'}

const traceVersion = 1

// WriteTrace serializes a trace in the named format.
func WriteTrace(w io.Writer, format string, t *Trace) error {
	bw := bufio.NewWriter(w)
	switch format {
	case FormatCSV:
		if _, err := fmt.Fprintln(bw, "minute,queries,cumulative"); err != nil {
			return err
		}
		var cum int64
		for i, q := range t.PerMinute {
			cum += int64(q)
			if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", i, q, cum); err != nil {
				return err
			}
		}
	case FormatNDJSON:
		for i, q := range t.PerMinute {
			if _, err := fmt.Fprintf(bw, "{\"m\":%d,\"q\":%d}\n", i, q); err != nil {
				return err
			}
		}
	case FormatBinary:
		if _, err := bw.Write(traceMagic[:]); err != nil {
			return err
		}
		if err := bw.WriteByte(traceVersion); err != nil {
			return err
		}
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], uint64(len(t.PerMinute)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev := 0
		for _, q := range t.PerMinute {
			n := binary.PutVarint(buf[:], int64(q-prev))
			if _, err := bw.Write(buf[:n]); err != nil {
				return err
			}
			prev = q
		}
	default:
		return fmt.Errorf("dataset: unknown trace format %q", format)
	}
	return bw.Flush()
}

// TraceReader streams a trace file minute by minute without loading it
// whole. OpenTrace sniffs the format from the first bytes.
type TraceReader struct {
	br *bufio.Reader

	// binary state
	binary    bool
	remaining int
	prev      int64

	// text state
	header bool // CSV header consumed
	minute int
}

// OpenTrace wraps r in a streaming reader, auto-detecting the format
// (binary magic, NDJSON '{', or CSV).
func OpenTrace(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("dataset: reading trace header: %w", err)
	}
	tr := &TraceReader{br: br}
	if len(head) == 4 && [4]byte(head) == traceMagic {
		if _, err := br.Discard(4); err != nil {
			return nil, err
		}
		ver, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("dataset: reading trace version: %w", err)
		}
		if ver != traceVersion {
			return nil, fmt.Errorf("dataset: unsupported trace version %d", ver)
		}
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("dataset: reading trace length: %w", err)
		}
		if count > 1<<32 {
			return nil, fmt.Errorf("dataset: implausible trace length %d", count)
		}
		tr.binary = true
		tr.remaining = int(count)
	}
	return tr, nil
}

// Next returns the next minute's query count, or io.EOF at the end.
func (tr *TraceReader) Next() (int, error) {
	if tr.binary {
		if tr.remaining == 0 {
			return 0, io.EOF
		}
		delta, err := binary.ReadVarint(tr.br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return 0, fmt.Errorf("dataset: trace truncated with %d minutes missing", tr.remaining)
			}
			return 0, err
		}
		tr.remaining--
		tr.prev += delta
		if tr.prev < 0 {
			return 0, fmt.Errorf("dataset: trace decodes to negative rate %d", tr.prev)
		}
		return int(tr.prev), nil
	}
	for {
		line, err := tr.br.ReadString('\n')
		line = strings.TrimSpace(line)
		if line == "" {
			if err != nil {
				return 0, io.EOF
			}
			continue
		}
		q, perr := tr.parseLine(line)
		if perr != nil {
			return 0, perr
		}
		if q < 0 { // skipped header
			continue
		}
		return q, nil
	}
}

// parseLine extracts the query count from one CSV or NDJSON line; -1 means
// the line was a header to skip.
func (tr *TraceReader) parseLine(line string) (int, error) {
	if strings.HasPrefix(line, "{") {
		// Minimal NDJSON: {"m":N,"q":N}. Hand-parsed so the reader stays
		// allocation-light at hundreds of thousands of minutes.
		i := strings.Index(line, "\"q\":")
		if i < 0 {
			return 0, fmt.Errorf("dataset: ndjson trace line %q has no \"q\" field", line)
		}
		rest := line[i+4:]
		end := strings.IndexAny(rest, ",}")
		if end < 0 {
			return 0, fmt.Errorf("dataset: unterminated ndjson trace line %q", line)
		}
		q, err := strconv.Atoi(strings.TrimSpace(rest[:end]))
		if err != nil {
			return 0, fmt.Errorf("dataset: ndjson trace line %q: %w", line, err)
		}
		return tr.count(q)
	}
	if !tr.header && strings.HasPrefix(line, "minute,") {
		tr.header = true
		return -1, nil
	}
	fields := strings.Split(line, ",")
	if len(fields) < 2 {
		return 0, fmt.Errorf("dataset: csv trace line %q", line)
	}
	q, err := strconv.Atoi(fields[1])
	if err != nil {
		return 0, fmt.Errorf("dataset: csv trace line %q: %w", line, err)
	}
	return tr.count(q)
}

// count accepts one minute's parsed query count. A negative count is
// malformed, as in the binary format, and must not pass for the header
// sentinel.
func (tr *TraceReader) count(q int) (int, error) {
	if q < 0 {
		return 0, fmt.Errorf("dataset: trace minute %d has negative rate %d", tr.minute, q)
	}
	tr.minute++
	return q, nil
}

// ReadTrace loads a whole trace file (any format) into memory — the
// convenience path for tests and small runs; the replayer streams instead.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := OpenTrace(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	for {
		q, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.PerMinute = append(t.PerMinute, q)
	}
}
