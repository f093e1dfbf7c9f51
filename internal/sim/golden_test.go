package sim

// Golden determinism tests for the kernel. The gate is a stored file:
// testdata/schedules.sha256 holds one sha256 of fingerprint() per (golden
// workload, protocol, option profile), and every build must reproduce it.
// The fingerprint covers the full observable run — every history op, every
// job's statistics, every counter, the deadlock verdict, the ceiling track
// and (when traced) the per-tick timeline — so a divergence in any tick
// changes a hash.

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pcpda/internal/cc"
	"pcpda/internal/metrics"
	"pcpda/internal/papercases"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// fingerprint renders every observable aspect of a run as a canonical
// string. Two runs are "the same schedule" iff their
// fingerprints match byte for byte.
func fingerprint(set *txn.Set, res *sched.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol=%s horizon=%d\n", res.Protocol, res.Horizon)
	fmt.Fprintf(&b, "committed=%d misses=%d aborts=%d restarts=%d idle=%d\n",
		res.Committed, res.Misses, res.Aborts, res.Restarts, res.IdleTicks)
	fmt.Fprintf(&b, "deadlocked=%v at=%d cycle=%v\n", res.Deadlocked, res.DeadlockAt, res.DeadlockCycle)
	fmt.Fprintf(&b, "maxsysceil=%d\n", res.MaxSysceil)
	for id, j := range res.Jobs {
		fmt.Fprintf(&b, "job %d tmpl=%s rel=%d dl=%d status=%v runpri=%d step=%d fin=%d blk=%d inv=%d rst=%d miss=%d everblk=%v\n",
			id, res.Set.Templates[j.Tmpl].Name, j.Release, j.AbsDeadline, j.Status, j.RunPri, j.StepIdx,
			j.FinishTick, j.BlockedTicks, j.InvBlockTicks, j.Restarts, j.MissedAt, res.EverBlockedBy(j))
	}
	for _, op := range res.History.Ops {
		fmt.Fprintf(&b, "op t=%d run=%d txn=%d kind=%v item=%d ver=%d from=%d\n",
			op.Time, op.Run, op.Txn, op.Kind, op.Item, op.Ver, op.From)
	}
	// The tally is printed rule by rule in name order, grants then fresh
	// denials, each line only when its count is nonzero.
	rules := slices.Clone(res.Decisions)
	slices.SortFunc(rules, func(a, b cc.RuleCount) int { return strings.Compare(a.Rule, b.Rule) })
	for _, r := range rules {
		if r.Grants > 0 {
			fmt.Fprintf(&b, "grant %s=%d\n", r.Rule, r.Grants)
		}
	}
	for _, r := range rules {
		if r.Blocks > 0 {
			fmt.Fprintf(&b, "block %s=%d\n", r.Rule, r.Blocks)
		}
	}
	for it, ticks := range res.ItemBlocked {
		if ticks > 0 {
			fmt.Fprintf(&b, "itemblk %d=%d\n", it, ticks)
		}
	}
	if res.Timeline != nil {
		b.WriteString(res.Timeline.CSV(set))
	}
	return b.String()
}

// goldenWorkloads returns the paper examples, three seeded random
// workloads in the sweep engine's parameter regime and the LC4 deadlock set.
func goldenWorkloads(t *testing.T) []*txn.Set {
	t.Helper()
	sets := []*txn.Set{
		papercases.Example1(),
		papercases.Example3(),
		papercases.Example4(),
		papercases.Example5(),
	}
	for seed := int64(1); seed <= 3; seed++ {
		set, err := workload.Generate(workload.Config{
			Name: fmt.Sprintf("golden-%d", seed), N: 8, Items: 10,
			Utilization: 0.55, PeriodMin: 40, PeriodMax: 800,
			OpsMin: 1, OpsMax: 4, WriteProb: 0.5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	return append(sets, papercases.LC4Deadlock())
}

const goldenFile = "testdata/schedules.sha256"

// update rewrites goldenFile from this build instead of checking against it
// (go test ./internal/sim -run TestGoldenSchedules -update). CI never passes
// it: the file changes only in a PR that means to change a schedule. Such a
// PR usually moves the experiment report too, whose checksum CI's sweeps job
// holds; rewrite it with
// go run ./cmd/experiments -j 1 -maxticks 600 | sha256sum > cmd/experiments/testdata/maxticks600.sha256
var update = flag.Bool("update", false, "rewrite "+goldenFile+" from this build")

// goldenVariants are the option profiles every (workload, protocol) pair is
// fingerprinted under.
var goldenVariants = []struct {
	name string
	opts Options
}{
	{"plain", Options{StopOnDeadlock: true}},
	{"ceiling", Options{StopOnDeadlock: true, TrackCeiling: true}},
	{"traced", Options{StopOnDeadlock: true, Trace: true}},
	{"firm", Options{StopOnDeadlock: true, FirmDeadlines: true, TrackCeiling: true}},
}

// TestGoldenSchedules holds every protocol, golden workload and option
// profile to the schedule stored in goldenFile, in sha256sum's line format
// ("<hex>  <set>/<protocol>/<profile>"), one line per cell in run order.
//
// The race build checks a seeded tenth of the cells against their stored
// lines: the simulator starts no goroutine for the detector to watch.
func TestGoldenSchedules(t *testing.T) {
	take := sampled(10)
	if *update {
		take = func() bool { return true }
	}
	var got []string // one line per cell, "" for a cell the race build's sample skips
	for _, set := range goldenWorkloads(t) {
		for _, name := range Protocols() {
			for _, v := range goldenVariants {
				if !take() {
					got = append(got, "")
					continue
				}
				res, err := Run(set, name, v.opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", set.Name, name, v.name, err)
				}
				got = append(got, fmt.Sprintf("%x  %s/%s/%s", sha256.Sum256([]byte(fingerprint(set, res))), set.Name, name, v.name))
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := bufio.NewScanner(f)
	for n, line := range got {
		if !want.Scan() {
			t.Fatalf("%s ends after %d lines; this build runs more cells, the first %q", goldenFile, n, line)
		}
		if line != "" && want.Text() != line {
			t.Errorf("%s line %d: schedule changed\n stored: %s\n    got: %s", goldenFile, n+1, want.Text(), line)
		}
	}
	if want.Scan() {
		t.Errorf("%s has cells this build does not run, the first %q", goldenFile, want.Text())
	}
	if err := want.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFastForwardVsTickByTick pins the fast-forward eligibility under
// TrackCeiling (new in this change: ceiling tracking no longer forces
// tick-by-tick execution): skipping inert spans must not change the
// schedule or Max_Sysceil.
func TestGoldenFastForwardVsTickByTick(t *testing.T) {
	for _, set := range goldenWorkloads(t) {
		for _, name := range Protocols() {
			run := func(disableFF bool) *sched.Result {
				p, err := NewProtocol(name)
				if err != nil {
					t.Fatal(err)
				}
				k, err := sched.New(set, p, sched.Config{
					Horizon:            DefaultHorizon(set),
					TrackCeiling:       true,
					StopOnDeadlock:     true,
					DisableFastForward: disableFF,
				})
				if err != nil {
					t.Fatal(err)
				}
				return k.Run()
			}
			ff, tick := run(false), run(true)
			if fpFF, fpTick := fingerprint(set, ff), fingerprint(set, tick); fpFF != fpTick {
				t.Errorf("%s/%s: fast-forward diverges from tick-by-tick\nfirst diff: %s",
					set.Name, name, firstDiff(fpFF, fpTick))
			}
		}
	}
}

// TestGoldenCompareWorkers asserts Compare returns, in argument order, what
// a lone Run of each protocol returns: the same schedule and its summary.
func TestGoldenCompareWorkers(t *testing.T) {
	protocols := Protocols()
	opts := Options{StopOnDeadlock: true, TrackCeiling: true}
	for _, set := range goldenWorkloads(t) {
		comps, err := Compare(set, protocols, opts)
		if err != nil {
			t.Fatalf("%s: %v", set.Name, err)
		}
		if len(comps) != len(protocols) {
			t.Fatalf("%s: %d comparisons, want %d", set.Name, len(comps), len(protocols))
		}
		for i, name := range protocols {
			res, err := Run(set, name, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", set.Name, name, err)
			}
			if comps[i].Name != name {
				t.Errorf("%s: comparison %d is %s, want %s", set.Name, i, comps[i].Name, name)
			}
			if fpC, fpR := fingerprint(set, comps[i].Result), fingerprint(set, res); fpC != fpR {
				t.Errorf("%s/%s: Compare diverges from Run\nfirst diff: %s", set.Name, name, firstDiff(fpC, fpR))
			}
			if sum := metrics.Summarize(res); !reflect.DeepEqual(comps[i].Summary, sum) {
				t.Errorf("%s/%s: summaries diverge:\n  Compare: %+v\n  Run:     %+v",
					set.Name, name, comps[i].Summary, sum)
			}
		}
	}
}

// TestGoldenParanoid runs the kernel's per-tick invariant checker (I1-I5)
// over the golden workloads.
func TestGoldenParanoid(t *testing.T) {
	for _, set := range goldenWorkloads(t) {
		for _, name := range Protocols() {
			p, err := NewProtocol(name)
			if err != nil {
				t.Fatal(err)
			}
			k, err := sched.New(set, p, sched.Config{
				Horizon:        DefaultHorizon(set),
				StopOnDeadlock: true,
				Paranoid:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res := k.Run(); res.Invariant != nil {
				t.Errorf("%s/%s: %v", set.Name, name, res.Invariant)
			}
		}
	}
}

// firstDiff locates the first line where two fingerprints disagree.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(la), len(lb))
}
