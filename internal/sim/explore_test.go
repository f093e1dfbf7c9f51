package sim

// The explorer: every small transaction set within a bound, in canonical
// form, run under each protocol and held to what the protocol promises by
// Verify. The paper's model is one processor, fixed priorities and known
// release times, so a schedule is a function of the set and its offsets:
// enumerating the sets enumerates the schedules, through the unmodified
// kernel.

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"pcpda/internal/rt"
	"pcpda/internal/sched"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// exploreFull adds the three-template scopes to TestExplore (go test
// ./internal/sim -run TestExplore -explore.full); CI's sweeps job passes it.
var exploreFull = flag.Bool("explore.full", false, "run TestExplore over the three-template scopes too")

// scope bounds one enumeration. A template is 1..maxSteps steps, each a
// read or a write of one of the first items of x, y, z, or a 1-tick compute;
// each template is released once, at an offset in 0..maxOffset.
type scope struct {
	name      string
	templates int
	maxSteps  int
	items     int
	distinct  bool // no item twice in one template
	maxOffset rt.Ticks
	samples   int // draw this many sets instead of enumerating them
}

var (
	exploreSlice = scope{name: "2x3", templates: 2, maxSteps: 3, items: 2, maxOffset: 2}
	exploreWide  = []scope{
		{name: "3x2", templates: 3, maxSteps: 2, items: 2, maxOffset: 2},
		{name: "3x2-xyz", templates: 3, maxSteps: 2, items: 3, distinct: true, maxOffset: 2},
		// Three-step bodies under three templates are beyond enumeration
		// (about 40 million sets); a sample reaches the LC4 and inherited-LC2
		// paths the two enumerated three-template scopes never do.
		{name: "3x3-sampled", templates: 3, maxSteps: 3, items: 3, maxOffset: 3, samples: 300_000},
	}
)

// bodies lists every template body within the scope. A step's Item is its
// item's index in x, y, z (rt.NoItem for a compute step).
func (sc scope) bodies() [][]txn.Step {
	letters := []txn.Step{txn.Comp(1)}
	for it := 0; it < sc.items; it++ {
		letters = append(letters, txn.Read(rt.Item(it)), txn.Write(rt.Item(it)))
	}
	var out [][]txn.Step
	var grow func(body []txn.Step)
	grow = func(body []txn.Step) {
		if len(body) > 0 {
			out = append(out, append([]txn.Step(nil), body...))
		}
		if len(body) == sc.maxSteps {
			return
		}
	next:
		for _, l := range letters {
			if sc.distinct && l.Kind != txn.Compute {
				for _, s := range body {
					if s.Item == l.Item {
						continue next
					}
				}
			}
			grow(append(body, l))
		}
	}
	grow(nil)
	return out
}

// each calls fn with every canonical set within the scope: the earliest
// offset is 0, and items first appear in the order x, y, z (reading the
// templates in priority order), so a set that only renames items or shifts
// every release is run once. A sampled scope instead draws its sets, bodies
// and offsets uniformly, from a fixed seed.
func (sc scope) each(fn func(*txn.Set)) {
	bodies := sc.bodies()
	pick := make([]int, sc.templates)
	offs := make([]rt.Ticks, sc.templates)
	build := func(items int) *txn.Set {
		set := txn.NewSet("explore")
		for it := 0; it < items; it++ {
			set.Catalog.Intern(string(rune('x' + it)))
		}
		for i, b := range pick {
			set.Add(&txn.Template{Name: fmt.Sprintf("T%d", i+1), Offset: offs[i], Steps: bodies[b]})
		}
		set.AssignByIndex()
		return set
	}
	if sc.samples > 0 {
		rng := rand.New(rand.NewSource(1))
		for range sc.samples {
			for i := range pick {
				pick[i], offs[i] = rng.Intn(len(bodies)), rt.Ticks(rng.Intn(int(sc.maxOffset)+1))
			}
			fn(build(sc.items))
		}
		return
	}
	var choose func(i int)
	choose = func(i int) {
		if i < sc.templates {
			for b := range bodies {
				pick[i] = b
				choose(i + 1)
			}
			return
		}
		seen := 0
		for _, b := range pick {
			for _, s := range bodies[b] {
				if s.Kind == txn.Compute || int(s.Item) < seen {
					continue
				}
				if int(s.Item) > seen {
					return
				}
				seen++
			}
		}
		var place func(i int)
		place = func(i int) {
			if i < sc.templates {
				for o := rt.Ticks(0); o <= sc.maxOffset; o++ {
					offs[i] = o
					place(i + 1)
				}
				return
			}
			if slices.Min(offs) == 0 {
				fn(build(seen))
			}
		}
		place(0)
	}
	choose(0)
}

// TestExplore runs every canonical set of each scope under the ceiling
// protocols, which must break no promise, and under naive-DA and PIP, the
// paper's positive controls, which must deadlock at least once each (and
// break nothing they do promise). Tier-1 runs the two-template scope;
// -explore.full adds the three-template ones.
func TestExplore(t *testing.T) {
	scopes := []scope{exploreSlice}
	if *exploreFull {
		scopes = append(scopes, exploreWide...)
	}
	controls := map[string]bool{"naiveda": true, "pip": true}
	for _, sc := range scopes {
		for _, name := range []string{"pcpda", "pcpda-lc2", "rwpcp", "ccp", "pcp", "naiveda", "pip"} {
			t.Run(sc.name+"/"+name, func(t *testing.T) {
				t.Parallel()
				start := time.Now()
				var runs, deadlocks, broken, ceiling, lc4 int
				sc.each(func(set *txn.Set) {
					res := paranoidRun(t, set, name, DefaultHorizon(set))
					runs++
					if res.Deadlocked {
						deadlocks++
					}
					ceiling += res.Decisions.Of("ceiling").Blocks
					lc4 += res.Decisions.Of("LC4").Grants
					if v := Verify(name, res); len(v) > 0 {
						if broken++; broken <= 3 {
							t.Errorf("%s\n%s", strings.Join(v, "\n"), explain(t, set, name))
						}
					}
				})
				t.Logf("%d sets in %v: %d deadlocks, %d broken, %d ceiling denials, %d LC4 grants",
					runs, time.Since(start).Round(time.Millisecond), deadlocks, broken, ceiling, lc4)
				if broken > 0 {
					t.Errorf("%d of %d sets break a promise", broken, runs)
				}
				if controls[name] && deadlocks == 0 {
					t.Errorf("positive control %s never deadlocked over %d sets", name, runs)
				}
			})
		}
	}
}

// paranoidRun runs set under protocol with the kernel's structural audit at
// every tick (Result.Invariant, which Verify reports).
func paranoidRun(t *testing.T, set *txn.Set, protocol string, horizon rt.Ticks) *sched.Result {
	p, err := NewProtocol(protocol)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sched.New(set, p, sched.Config{Horizon: horizon, StopOnDeadlock: true, Paranoid: true})
	if err != nil {
		t.Fatal(err)
	}
	return k.Run()
}

// explain renders a counterexample so that it pastes into pcpsim: the set
// as workload JSON, then the traced run's timeline.
func explain(t *testing.T, set *txn.Set, protocol string) string {
	js, err := workload.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(set, protocol, Options{StopOnDeadlock: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	return string(js) + "\n" + res.Timeline.Render(set)
}
