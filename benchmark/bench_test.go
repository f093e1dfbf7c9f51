package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
)

// TestContractMatchesProgram holds BENCHMARK.json against the program's
// own lists: the same workloads, the same metric names and units, names
// and units inside the contract's character rules, no bound above
// setup_s's.
func TestContractMatchesProgram(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	nameRule := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := c.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRule.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q breaks the naming rules", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !nameRule.MatchString(d.name) || !unitRule.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s metric %q [%s] breaks the naming rules or repeats", kind, d.name, d.unit)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s metric %q: better = %q", kind, d.name, g.Better)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
	var setup float64
	for _, d := range c.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end metric %q: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range c.EndToEnd {
		if d.Bound > setup {
			t.Errorf("setup_s must have the largest bound: %q has %g, setup_s %g", d.Name, d.Bound, setup)
		}
	}
}

// TestSmoke runs every workload end to end and traced at a hundredth of
// its segment size and checks the output contract: every metric printed by
// name exactly once with its unit, a finite value, a correct verdict, and a
// last line that parses. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and runs every workload")
	}
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.05", "--trace", mode.trace, "--scale", "100"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w.name, mode.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s --trace %s: last line: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%t attempted=%d failed=%d\n%s", w.name, mode.trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s --trace %s: %d metrics in the result, want %d", w.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s --trace %s: metric %s = %+v (present %t)", w.name, mode.trace, d.name, v, ok)
				}
				if mode.trace == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.name, v.Value)
				}
				printed := 0
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) == 3 && f[0] == d.name && f[2] == d.unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s --trace %s: metric %s printed %d times, want once with its unit", w.name, mode.trace, d.name, printed)
				}
			}
		}
	}
}
