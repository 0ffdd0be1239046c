package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare prints the end-to-end and per-layer metrics of two saved
// results side by side. Results measured at different widths (CPUs,
// GOMAXPROCS, UDP shards, sweep parallelism) are refused, not diffed: a
// difference between them says nothing about the code.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("refusing to compare workload %s with %s", a.Workload, b.Workload)
	}
	if wa, wb := a.Stamp.width(), b.Stamp.width(); wa != wb {
		return fmt.Errorf("refusing to compare results of different widths:\n  %s: %s\n  %s: %s", pathA, wa, pathB, wb)
	}
	fmt.Fprintf(w, "%s: %s (%s) vs %s (%s), width %s\n", a.Workload, pathA, orNone(a.Stamp.Commit), pathB, orNone(b.Stamp.Commit), a.Stamp.width())
	for _, set := range []struct {
		title string
		a, b  map[string]metric
	}{{"end-to-end", a.Metrics, b.Metrics}, {"per-layer", a.Layers, b.Layers}} {
		keys := make([]string, 0, len(set.a))
		for k := range set.a {
			if _, ok := set.b[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			fmt.Fprintf(w, "%s:\n", set.title)
		}
		for _, k := range keys {
			va, vb := set.a[k].Value, set.b[k].Value
			change := "n/a"
			if va != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(vb-va)/va)
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %9s %s\n", k, va, vb, change, set.a[k].Unit)
		}
	}
	return nil
}

func loadResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
