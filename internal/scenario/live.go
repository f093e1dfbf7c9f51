package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pcpda/internal/client"
	"pcpda/internal/nemesis"
	"pcpda/internal/wire"
)

// LiveOptions tunes the live backend.
type LiveOptions struct {
	// Addr is the pcpdad service to drive.
	Addr string
	// SkipSchemaCheck accepts a server whose exported schema does not
	// match the spec's base workload. The per-template skew then applies
	// to whatever the server serves, and sim-vs-live rows are no longer
	// about the same workload — only set this to poke at a foreign
	// server.
	SkipSchemaCheck bool
}

// RunLive runs the scenario against a live pcpdad service through the
// pipelined open-loop client: each phase realizes the same arrival
// schedule (sweep seed 0) and the same access skew as the sim backend —
// the schedule via client.RunLoad's absolute-time pacer, the skew via the
// template-pick hook — and maps the load report into the shared SLO row
// schema.
func RunLive(ctx context.Context, spec *Spec, opts LiveOptions) (*Report, error) {
	probe, err := client.DialPipelined(opts.Addr, 10*time.Second, 1)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: live: %w", spec.Name, err)
	}
	schema := probe.Schema()
	_ = probe.Close()
	if len(schema.Templates) == 0 {
		return nil, fmt.Errorf("scenario %s: live: server exports no transaction types", spec.Name)
	}
	if !opts.SkipSchemaCheck {
		if err := checkSchema(spec, schema); err != nil {
			return nil, err
		}
	}

	rep := &Report{Scenario: spec.Name, Backend: "live", Seed: spec.Seed}
	prof := liveProfiles(schema)
	for pi := range spec.Phases {
		ph := &spec.Phases[pi]
		row, err := runLivePhase(ctx, spec, ph, pi, prof, opts.Addr)
		if err != nil {
			return rep, fmt.Errorf("scenario %s: phase %s: %w", spec.Name, ph.Name, err)
		}
		rep.Rows = append(rep.Rows, *row)
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
	}
	return rep, nil
}

func runLivePhase(ctx context.Context, spec *Spec, ph *PhaseSpec, pi int,
	prof []TemplateProfile, addr string) (*PhaseReport, error) {
	seed := spec.phaseSeed(pi, 0)
	times := ArrivalTimes(ph.Arrival, ph.DurationS, rand.New(rand.NewSource(seed)))
	offsets := make([]time.Duration, len(times))
	for i, t := range times {
		offsets[i] = time.Duration(t * float64(time.Second))
	}
	picker := NewPicker(ph.Access, prof, ph.DurationS)

	target := addr
	var proxy *nemesis.Proxy
	if f := ph.Faults; f != nil && f.Nemesis != nil {
		n := f.Nemesis
		p, err := nemesis.New(nemesis.Config{
			Listen: "127.0.0.1:0",
			Target: addr,
			Seed:   seed ^ f.Seed,
			Faults: nemesis.Faults{
				Latency:      time.Duration(n.LatencyMS * float64(time.Millisecond)),
				Jitter:       time.Duration(n.JitterMS * float64(time.Millisecond)),
				BandwidthBPS: n.BandwidthBPS,
				PReset:       n.PReset,
				PDrop:        n.PDrop,
				PPartition:   n.PPartition,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("nemesis: %w", err)
		}
		proxy = p
		target = p.Addr().String()
		defer proxy.Close()
	}

	lc := client.LoadConfig{
		Addr:         target,
		Conns:        spec.Live.Conns,
		Seed:         seed,
		Pipelined:    true,
		Window:       spec.Live.Window,
		MaxAttempts:  spec.Live.MaxAttempts,
		MaxInFlight:  spec.Live.MaxInFlight,
		ArrivalRate:  MeanRate(ph.Arrival),
		ArrivalTimes: offsets,
		Duration:     time.Duration(ph.DurationS * float64(time.Second)),
		ReadFrac:     ph.ReadFrac,
		PickTemplate: func(rng *rand.Rand, frac float64) int { return picker.Pick(rng, frac) },
	}
	if ph.DeadlineMS > 0 {
		lc.DeadlineBudget = time.Duration(ph.DeadlineMS * float64(time.Millisecond))
		lc.OpTimeout = opTimeout(lc.DeadlineBudget)
	}
	if ph.ReadFracEnd != nil {
		start, end := ph.ReadFrac, *ph.ReadFracEnd
		lc.ReadFracAt = func(frac float64) float64 { return start + (end-start)*frac }
	}
	lr, err := client.RunLoad(ctx, lc)
	if err != nil && lr == nil {
		return nil, err
	}

	row := &PhaseReport{
		Phase:        ph.Name,
		Protocol:     "live", // the server picks its CC protocol; the wire doesn't name it
		Offered:      lr.Offered,
		Committed:    lr.Committed,
		OnTime:       lr.OnTime,
		Restarts:     lr.Retries,
		Aborted:      lr.Failed,
		Shed:         lr.Shed,
		Overrun:      lr.Overrun,
		P50MS:        msOf(lr.P50),
		P99MS:        msOf(lr.P99),
		P999MS:       msOf(lr.P999),
		OfferedRate:  lr.OfferedRate,
		AchievedRate: lr.AchievedRate,
		Series:       make([]int64, client.Buckets),
	}
	for i, b := range lr.Buckets {
		row.Series[i] = b.Committed
	}
	for _, tr := range lr.Tiers {
		row.Tiers = append(row.Tiers, TierSLO{Tier: tr.Priority, Offered: tr.Offered, OnTime: tr.OnTime})
	}
	row.finish(ph.DurationS)
	return row, err
}

// opTimeout is how long a phase's workers wait for a reply before they give
// the connection up. A connection the nemesis partitions answers nothing,
// and parks its worker until then: at the client's 10 s default that is half
// of a 20 s fault-storm phase spent on transactions whose 250 ms deadlines
// were lost in the first quarter second. A few deadlines is long enough to
// tell silence from slowness; the floor keeps the timeout behind the
// server's own verdict, the watchdog's CodeDeadline a grace period (1 s by
// default) after the deadline. A phase without a deadline keeps the default.
func opTimeout(deadline time.Duration) time.Duration {
	return max(8*deadline, 2*time.Second)
}

// msOf converts a duration to milliseconds for the shared row schema.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveProfiles derives the picker's template profiles from the wire
// schema — the live-side mirror of Profiles(set).
func liveProfiles(schema *wire.HelloOK) []TemplateProfile {
	out := make([]TemplateProfile, len(schema.Templates))
	for i, t := range schema.Templates {
		reads, writes := 0, 0
		for _, st := range t.Steps {
			switch st.Op {
			case wire.OpRead:
				reads++
			case wire.OpWrite:
				writes++
			}
		}
		rf := 0.0
		if reads+writes > 0 {
			rf = float64(reads) / float64(reads+writes)
		}
		out[i] = TemplateProfile{Index: i, Priority: t.Priority, ReadFrac: rf}
	}
	return out
}

// checkSchema verifies the server serves the spec's base workload: same
// template names with the same priorities. Without this the "same spec,
// two backends" claim silently degrades into two unrelated experiments.
func checkSchema(spec *Spec, schema *wire.HelloOK) error {
	base, err := spec.BaseSet()
	if err != nil {
		return err
	}
	if len(schema.Templates) != len(base.Templates) {
		return fmt.Errorf("scenario %s: live server schema has %d templates, spec workload %d (start the server from the same workload parameters, or SkipSchemaCheck)",
			spec.Name, len(schema.Templates), len(base.Templates))
	}
	want := make(map[string]int32, len(base.Templates))
	for _, t := range base.Templates {
		want[t.Name] = int32(t.Priority)
	}
	for _, t := range schema.Templates {
		pri, ok := want[t.Name]
		if !ok {
			return fmt.Errorf("scenario %s: live server exports template %q absent from the spec workload", spec.Name, t.Name)
		}
		if pri != t.Priority {
			return fmt.Errorf("scenario %s: live server template %q has priority %d, spec workload %d", spec.Name, t.Name, t.Priority, pri)
		}
	}
	return nil
}
