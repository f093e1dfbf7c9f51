package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

const testSpecJSON = `{
  "name": "unit",
  "seed": 5,
  "seeds": 2,
  "workload": { "n": 6, "items": 10 },
  "protocols": ["pcpda", "2plhp"],
  "phases": [
    {
      "name": "a",
      "duration_s": 1.5,
      "arrival": { "kind": "poisson", "rate": 10 },
      "access": { "kind": "zipf", "theta": 0.8 },
      "deadline_ms": 200
    },
    {
      "name": "b",
      "duration_s": 1.5,
      "arrival": { "kind": "ramp", "rate": 5, "rate_end": 20 },
      "access": { "kind": "hotshift", "theta": 0.9, "shift_every_s": 0.5 },
      "deadline_ms": 150,
      "faults": { "abort_prob": 0.01 }
    }
  ]
}`

func testSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := Parse([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return spec
}

func TestCompilePhase(t *testing.T) {
	spec := testSpec(t)
	base, err := spec.BaseSet()
	if err != nil {
		t.Fatal(err)
	}
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		cp, err := compilePhase(spec, ph, base, spec.phaseSeed(pi, 0))
		if err != nil {
			t.Fatalf("phase %s: %v", ph.Name, err)
		}
		if err := cp.set.Validate(); err != nil {
			t.Fatalf("phase %s: compiled set invalid: %v", ph.Name, err)
		}
		if len(cp.tier) != len(cp.set.Templates) {
			t.Fatalf("phase %s: %d tier labels for %d instances", ph.Name, len(cp.tier), len(cp.set.Templates))
		}
		baseByName := make(map[string]bool)
		for _, bt := range base.Templates {
			baseByName[bt.Name] = true
		}
		for i, inst := range cp.set.Templates {
			if inst.Period != 0 {
				t.Fatalf("phase %s: instance %d is periodic", ph.Name, i)
			}
			if inst.Offset+inst.Deadline > cp.horizon {
				t.Fatalf("phase %s: instance %d tail %d past horizon %d", ph.Name, i, inst.Offset+inst.Deadline, cp.horizon)
			}
			if inst.Exec() > inst.Deadline {
				t.Fatalf("phase %s: instance %d infeasible (exec %d > deadline %d)", ph.Name, i, inst.Exec(), inst.Deadline)
			}
		}
		// Tier structure: every instance of a higher base tier outranks
		// every instance of a lower one under the synthetic priorities.
		for i := range cp.set.Templates {
			for j := range cp.set.Templates {
				if cp.tier[i] > cp.tier[j] && cp.set.Templates[i].Priority < cp.set.Templates[j].Priority {
					t.Fatalf("phase %s: tier inversion: instance %d (tier %d, pri %d) below instance %d (tier %d, pri %d)",
						ph.Name, i, cp.tier[i], cp.set.Templates[i].Priority, j, cp.tier[j], cp.set.Templates[j].Priority)
				}
			}
		}
	}
}

func TestCompileDeterminism(t *testing.T) {
	spec := testSpec(t)
	base, err := spec.BaseSet()
	if err != nil {
		t.Fatal(err)
	}
	a, err := compilePhase(spec, &spec.Phases[0], base, spec.phaseSeed(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := compilePhase(spec, &spec.Phases[0], base, spec.phaseSeed(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.set.Templates) != len(b.set.Templates) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.set.Templates), len(b.set.Templates))
	}
	for i := range a.set.Templates {
		x, y := a.set.Templates[i], b.set.Templates[i]
		if x.Name != y.Name || x.Offset != y.Offset || x.Priority != y.Priority || x.Deadline != y.Deadline {
			t.Fatalf("instance %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// TestRunSimDeterminism is the backend's reproducibility contract: the
// same spec and seed produce byte-identical JSON reports run after run,
// with the fault layer on (phase b injects aborts) and with it off.
func TestRunSimDeterminism(t *testing.T) {
	faulted := testSpec(t)
	clean := testSpec(t)
	for i := range clean.Phases {
		clean.Phases[i].Faults = nil
	}
	dump := func(spec *Spec) []byte {
		t.Helper()
		rep, err := RunSim(spec, SimOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for name, spec := range map[string]*Spec{"faults on": faulted, "faults off": clean} {
		if a, b := dump(spec), dump(spec); !bytes.Equal(a, b) {
			t.Fatalf("%s: sim report differs between two runs:\n%s\nvs\n%s", name, a, b)
		}
	}
	if bytes.Equal(dump(faulted), dump(clean)) {
		t.Fatal("the fault layer left the report unchanged")
	}
}

func TestRunSimRows(t *testing.T) {
	spec := testSpec(t)
	rep, err := RunSim(spec, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Rows), len(spec.Phases)*len(spec.Protocols); got != want {
		t.Fatalf("%d rows, want %d", got, want)
	}
	for i := range rep.Rows {
		row := &rep.Rows[i]
		if row.Offered == 0 {
			t.Fatalf("row %s/%s offered 0", row.Phase, row.Protocol)
		}
		if row.OnTime != row.Committed {
			t.Fatalf("row %s/%s: on_time %d != committed %d under FirmAbort", row.Phase, row.Protocol, row.OnTime, row.Committed)
		}
		if row.Missed != row.Offered-row.OnTime {
			t.Fatalf("row %s/%s: missed %d, want offered−ontime %d", row.Phase, row.Protocol, row.Missed, row.Offered-row.OnTime)
		}
		var tierSum, seriesSum int64
		for _, ts := range row.Tiers {
			tierSum += ts.Offered
		}
		if tierSum != row.Offered {
			t.Fatalf("row %s/%s: tier offered sum %d != offered %d", row.Phase, row.Protocol, tierSum, row.Offered)
		}
		for _, c := range row.Series {
			seriesSum += c
		}
		if seriesSum != row.Committed {
			t.Fatalf("row %s/%s: series sum %d != committed %d", row.Phase, row.Protocol, seriesSum, row.Committed)
		}
	}
	// The fault phase must show injected aborts somewhere across protocols.
	var faulted int64
	for i := range rep.Rows {
		if rep.Rows[i].Phase == "b" {
			faulted += rep.Rows[i].Aborted
		}
	}
	if faulted == 0 {
		t.Fatal("fault phase b reported zero injected aborts across all protocols")
	}
}

// TestReportRoundTrip pins the shared schema: a report survives a JSON
// round trip byte-identically, so live reports (which share the schema)
// are stable for downstream tooling.
func TestReportRoundTrip(t *testing.T) {
	spec := testSpec(t)
	rep, err := RunSim(spec, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	out2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Fatalf("report changed across a JSON round trip:\n%s\nvs\n%s", out, out2)
	}
}

// TestCatalogSpecsParse keeps the shipped scenarios/ catalog loadable: a
// grammar change that strands a curated spec fails here, not at runtime.
func TestCatalogSpecsParse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no scenarios/ catalog found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(data); err != nil {
			t.Errorf("%s: %v", filepath.Base(p), err)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"name":"x","workload":{"n":2,"items":2},"phasez":[]}`,
		"no phases":          `{"name":"x","workload":{"n":2,"items":2}}`,
		"bad arrival kind":   `{"name":"x","workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":1,"arrival":{"kind":"warp","rate":1}}]}`,
		"zero rate":          `{"name":"x","workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":1,"arrival":{"kind":"poisson"}}]}`,
		"bad protocol":       `{"name":"x","protocols":["nope"],"workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":1,"arrival":{"kind":"poisson","rate":1}}]}`,
		"dup phase":          `{"name":"x","workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":1,"arrival":{"kind":"poisson","rate":1}},{"name":"p","duration_s":1,"arrival":{"kind":"poisson","rate":1}}]}`,
		"bad fault prob":     `{"name":"x","workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":1,"arrival":{"kind":"poisson","rate":1},"faults":{"abort_prob":1.5}}]}`,
		"phase under a tick": `{"name":"x","workload":{"n":2,"items":2},"phases":[{"name":"p","duration_s":0.001,"arrival":{"kind":"periodic","rate":5000}}]}`,
	}
	for name, js := range cases {
		if _, err := Parse([]byte(js)); err == nil {
			t.Errorf("%s: accepted invalid spec", name)
		}
	}
}
