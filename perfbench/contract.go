package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// checkContract checks that the run reports exactly the metrics, with the
// units, that BENCHMARK.json at the checkout's root declares: its
// end-to-end list untraced, its per-layer list traced.
func checkContract(res *result, root string, traced bool) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if errors.Is(err, fs.ErrNotExist) {
		res.Notes = append(res.Notes, "no BENCHMARK.json at the root: metric names not checked")
		return
	}
	if err != nil {
		res.check("contract", false, "%v", err)
		return
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		res.check("contract", false, "BENCHMARK.json: %v", err)
		return
	}
	want, got := spec.EndToEnd, res.Metrics
	if traced {
		want, got = spec.PerLayer, res.Layers
	}
	var problems []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case v.Unit != m.Unit:
			problems = append(problems, m.Name+" in "+v.Unit+", declared "+m.Unit)
		}
	}
	for k := range got {
		if !seen[k] {
			problems = append(problems, "undeclared "+k)
		}
	}
	sort.Strings(problems)
	res.check("contract", len(problems) == 0, "%d metrics as BENCHMARK.json declares them%s", len(want), listed(problems))
}

func listed(p []string) string {
	if len(p) == 0 {
		return ""
	}
	return ": " + strings.Join(p, ", ")
}
