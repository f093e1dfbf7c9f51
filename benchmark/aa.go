package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// contract is BENCHMARK.json as the benchmark itself reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) gives them (the method the driver uses).
func quartiles(vals []float64) (q1, q3 float64) {
	s := slices.Clone(vals)
	slices.Sort(s)
	at := func(i int) float64 {
		j := i * (len(s) + 1) / 4
		j = min(max(j, 1), len(s)-1)
		delta := i*(len(s)+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// disagreement is how far the runs of one metric are apart: with two runs,
// by how much the worse is worse than the better, as a share of the better;
// with four or more, the distance between the first and the third quartile
// as a share of the median — the spread the driver holds against the bound.
func disagreement(def boundDef, vals []float64) float64 {
	if len(vals) < 4 {
		lo, hi := slices.Min(vals), slices.Max(vals)
		if def.Better == "higher" {
			return (hi - lo) / hi
		}
		return (hi - lo) / lo
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// runAA is the A/A self-check: every workload `rounds` times on the same
// build, round i with seed+i, every other round in reverse order, each run
// its own process (peak memory is per process). It fails when the runs of
// any end-to-end metric disagree by more than the metric's bound (setup_s
// is reported but, as in the driver's check, not held to it), and appends
// what it saw to benchmark/AA.md — the evidence the bounds rest on.
func runAA(root string, seed int64, seconds float64, rounds int, w io.Writer) error {
	c, err := loadContract(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	order := workloadNames()
	reversed := slices.Clone(order)
	slices.Reverse(reversed)
	runs := map[string][]*result{}
	for i := 0; i < rounds; i++ {
		round := order
		if i%2 == 1 {
			round = reversed
		}
		for _, name := range round {
			res, err := runChild(self, root, name, seed+int64(i), seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s: run not correct (correct=%t, failed=%d)", name, res.Correct, res.Failed)
			}
			runs[name] = append(runs[name], res)
			fmt.Fprintf(w, "aa: %s run %d of %d done\n", name, len(runs[name]), rounds)
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "\n## %s, commit %s: %d runs of every workload, seeds %d-%d, %g s timed\n\n",
		time.Now().UTC().Format("2006-01-02 15:04"), commitOf(root), rounds, seed, seed+int64(rounds)-1, seconds)
	fmt.Fprintf(&md, "Host: nproc=%d, %s, kernel %s. ", runtime.NumCPU(), runtime.Version(), readTrimmed("/proc/sys/kernel/osrelease"))
	if rounds < 4 {
		fmt.Fprintf(&md, "`apart` is by how much the worse run is worse than the better one.\n\n")
	} else {
		fmt.Fprintf(&md, "`apart` is (Q3 - Q1) / median, quartiles as Python's `statistics.quantiles(n=4)`.\n\n")
	}
	fmt.Fprintf(&md, "| workload | metric | median | min | max | apart | bound | within |\n|---|---|---:|---:|---:|---:|---:|---|\n")
	failures := 0
	for _, name := range order {
		for _, def := range c.EndToEnd {
			vals := make([]float64, len(runs[name]))
			for i, r := range runs[name] {
				vals[i] = r.Metrics[def.Name].Value
			}
			apart := disagreement(def, vals)
			ok := "yes"
			switch {
			case apart <= def.Bound:
			case def.Name == "setup_s":
				ok = "no (not held)"
			default:
				ok = "NO"
				failures++
			}
			fmt.Fprintf(&md, "| %s | %s | %s | %s | %s | %.4f | %g | %s |\n", name, def.Name,
				fmtVal(median(vals)), fmtVal(slices.Min(vals)), fmtVal(slices.Max(vals)), apart, def.Bound, ok)
		}
	}
	path := filepath.Join(root, "benchmark", "AA.md")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(md.String()); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "aa: appended to %s\n", path)
	if failures > 0 {
		return fmt.Errorf("A/A check: %d metrics disagree by more than their bound (see %s)", failures, path)
	}
	fmt.Fprintln(w, "aa: every end-to-end metric agrees within its bound")
	return nil
}

func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// runChild runs one end-to-end run in a child process and parses the last
// line of its output. The child is waited for before runChild returns.
func runChild(self, root, workload string, seed int64, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
