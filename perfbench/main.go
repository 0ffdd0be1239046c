// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints, as its last line, a JSON object with the run's
// correctness verdict and its metrics:
//
//	perfbench --workload serve-zipf --seed 1 --seconds 20 --trace 0
//
// Workloads: serve-zipf and serve-uniform drive a child resolved process
// over loopback UDP with an open-loop driver; sweep runs the paper's leak
// sweep in-process. --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload untraced and then traced, and reports the per-layer
// ledger. run.sh builds everything from the checkout first; README.md says
// why each workload and metric was chosen.
//
//	perfbench compare a.json b.json
//
// diffs two saved results, and refuses to when their widths differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
)

// env is what every workload needs from the command line.
type env struct {
	root      string
	resolved  string
	outDir    string
	server    netip.AddrPort
	firstPort int
	nsock     int
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			return 2, errors.New("usage: perfbench compare <result.json> <result.json>")
		}
		if err := compare(os.Stdout, args[1], args[2]); err != nil {
			return 1, err
		}
		return 0, nil
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve-zipf, serve-uniform or sweep")
	seed := fs.Int64("seed", 1, "workload seed: schedules (serving) or population (sweep)")
	seconds := fs.Int("seconds", 20, "measuring time of one run")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	root := fs.String("root", ".", "repository checkout")
	resolved := fs.String("resolved", ".bench_build/resolved", "resolved binary, relative to -root")
	outDir := fs.String("out", ".bench_build/out", "directory for logs, results and spans, relative to -root")
	server := fs.String("server", "127.0.0.1:53531", "address resolved listens on")
	firstPort := fs.Int("driver-port", 53541, "first of the driver's fixed source ports")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *trace != 0 && *trace != 1 {
		return 2, errors.New("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	addr, err := netip.ParseAddrPort(*server)
	if err != nil {
		return 2, fmt.Errorf("--server: %w", err)
	}
	e := &env{
		root:      *root,
		resolved:  filepath.Join(*root, *resolved),
		outDir:    filepath.Join(*root, *outDir),
		server:    addr,
		firstPort: *firstPort,
		nsock:     runtime.NumCPU(),
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return 1, err
	}
	res, err := runWorkload(e, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return 1, err
	}
	fmt.Print(res.report())
	if err := res.save(filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *trace))); err != nil {
		return 1, err
	}
	line, err := json.Marshal(res.contractLine(*trace == 1))
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, errors.New("correctness checks failed")
	}
	return 0, nil
}
