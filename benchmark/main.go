// Command benchmark is the repository's benchmark: four long, segmented
// workloads that drive every layer from outside through public functions
// only, eight end-to-end metrics, and a traced run that attributes cost
// layer by layer. BENCHMARK.json at the repository root is its contract;
// README.md beside this file says why each workload and metric exists.
//
//	benchmark --workload svc-sat-update --seed 1 --seconds 18 --trace 0
//	benchmark --workload svc-sat-update --seed 1 --seconds 18 --trace 1
//	benchmark --aa [--rounds 10]
//
// The last line of standard output is one JSON object with the run's
// verdict and metrics; everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: svc-sat-update, svc-lat-cycle, mgr-contended or sim-sweep")
		seed     = fs.Int64("seed", 1, "seed of the workload's inputs")
		seconds  = fs.Float64("seconds", 18, "how long the end-to-end run measures (the traced run is three fixed-work segments)")
		trace    = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end run with tracing off")
		aa       = fs.Bool("aa", false, "A/A self-check: run every workload --rounds times and hold the disagreement against the bounds in BENCHMARK.json")
		rounds   = fs.Int("rounds", 2, "with --aa: runs per workload; 2 compares the pair, 4 or more report the spread the driver checks")
		scale    = fs.Int("scale", 1, "divide every segment's work by this (smoke tests only; the metrics are defined at 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *aa {
		if *rounds < 2 {
			fmt.Fprintln(stderr, "benchmark: --aa needs --rounds of at least 2")
			return 2
		}
		if err := runAA(root, *seed, *seconds, *rounds, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	def, ok := findWorkload(*workload)
	if !ok || *seconds <= 0 || *scale < 1 {
		fmt.Fprintf(stderr, "benchmark: need --workload (one of %s), --seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	baseline := runtime.NumGoroutine()
	noisy := printHost(root, stdout)
	var res *result
	if *trace != 0 {
		res, err = runTraced(def, *seed, *scale, root, stdout)
	} else {
		res, err = runEndToEnd(def, *seed, *seconds, *scale, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
		return 1
	}
	if leaked := settleGoroutines(baseline); leaked > 0 {
		fmt.Fprintf(stdout, "CHECK FAILED: %d goroutines outlived the run\n", leaked)
		res.Correct = false
	}
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-32s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if noisy {
		fmt.Fprintln(stdout, "noisy_host: the 1-minute load average was above nproc/2 when the run started")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// findRoot walks up from the working directory to the repository root
// (the directory holding BENCHMARK.json), so the benchmark finds its
// contract, the scenario catalog and its output directory whether it is
// started from the root or from its own directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// printHost prints the run's provenance and reports whether the host was
// already busy: a load average above nproc/2 means the numbers compete
// with someone else's work.
func printHost(root string, w io.Writer) (noisy bool) {
	load := -1.0
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				load = v
			}
		}
	}
	noisy = load > float64(runtime.NumCPU())/2
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s kernel=%s commit=%s load1=%.2f noisy_host=%t\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		readTrimmed("/proc/sys/kernel/osrelease"), commitOf(root), load, noisy)
	return noisy
}

func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// commitOf reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commitOf(root string) string {
	head := readTrimmed(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = readTrimmed(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	}
	if len(head) < 12 || strings.ContainsAny(head, " /") {
		return "unknown"
	}
	return head[:12]
}

// settleGoroutines waits briefly for the goroutines the run started to
// finish and returns how many are left above the baseline.
func settleGoroutines(baseline int) int {
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-baseline, 0)
}
