// Command perfbench is the repository's benchmark. It runs one named
// workload against the live runtime or the simulator, checks that the
// outputs are correct, and prints every metric with its unit; the last
// line of its output is the result object.
//
//	perfbench --workload rocksdb-udp --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it runs the end-to-end pass and prints the end-to-end
// metrics; with --trace 1 it runs the traced pass and prints the
// per-layer metrics. See README.md in this directory for the metric
// definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"rocksdb-udp", "get-tcp", "fanout-udp", "sim-bimodal"}

func main() { os.Exit(run()) }

func run() int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "length of the measured phase in seconds")
	traced := fl.Int("trace", 0, "0: end-to-end pass, 1: traced pass")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	rep := newReport()
	var err error
	spec, live := liveSpecs[*workload]
	switch {
	case live && *traced == 0:
		err = liveE2E(rep, spec, *seed, dur)
	case live:
		err = liveTraced(rep, spec, *seed, dur)
	case *workload == "sim-bimodal" && *traced == 0:
		err = simE2E(rep, *seed, dur)
	case *workload == "sim-bimodal":
		err = simTraced(rep, *seed, dur)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := names(endToEnd)
	if *traced == 1 {
		want = names(perLayer)
		for _, name := range want {
			if _, ok := rep.metrics[name]; !ok {
				rep.add(name, 0, 0) // a layer this workload does not exercise
			}
		}
	}
	printHost(os.Stdout, *workload, *seed, *traced)
	if len(rep.gateFails) > 0 {
		for _, f := range rep.gateFails {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", f)
		}
		rep.metrics = map[string]metric{}
		_ = rep.print(os.Stdout, nil)
		return 1
	}
	if err := rep.check(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// printHost writes the host fingerprint every result is recorded
// with: absolute numbers do not travel between hosts.
func printHost(w io.Writer, workload string, seed uint64, traced int) {
	commit := os.Getenv("PERFBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	line, _ := json.Marshal(map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceHash("."),
		"workload":      workload,
		"seed":          seed,
		"trace":         traced,
	})
	fmt.Fprintf(w, "host %s\n", line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under root,
// which identifies the code measured when no commit is recorded.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
