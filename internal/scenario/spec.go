// Package scenario is the trace-driven workload engine: a declarative
// scenario spec composes sequential phases — each with its own arrival
// process, access skew, deadline budget and optional fault layer — and one
// engine runs the same spec against two backends, emitting one shared
// per-phase SLO report schema:
//
//   - the sim backend compiles every phase into one-shot transaction
//     instances for the simulator kernel and runs every requested protocol
//     over a seed sweep (internal/sim.RunBatch) on one goroutine,
//     byte-identically reproducible for a fixed seed;
//   - the live backend drives a pcpdad service through the pipelined
//     open-loop client (client.RunLoad), realizing the same arrival
//     schedule in wall time and the same access skew as template
//     selection, with nemesis proxy faults per phase.
//
// The spec is JSON (see scenarios/ for the curated catalog) plus flag
// overrides in cmd/pcpscenario. DESIGN.md §15 documents the grammar, the
// phase semantics and the sim-vs-live parity caveats.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"pcpda/internal/rt"
	"pcpda/internal/sim"
	"pcpda/internal/txn"
	"pcpda/internal/workload"
)

// Arrival process kinds.
const (
	ArrivalPeriodic = "periodic" // evenly spaced at Rate
	ArrivalPoisson  = "poisson"  // exponential gaps at Rate
	ArrivalBursty   = "bursty"   // on/off: Poisson bursts at BurstRate, silence between
	ArrivalRamp     = "ramp"     // inhomogeneous Poisson, Rate → RateEnd across the phase
)

// Access skew kinds.
const (
	AccessUniform  = "uniform"  // every template equally likely
	AccessZipf     = "zipf"     // Zipf(Theta) over templates ranked by priority
	AccessHotShift = "hotshift" // Zipf(Theta) whose ranking rotates every ShiftEveryS
	AccessMixShift = "mixshift" // selection weight shifts write-heavy → read-heavy across the phase
)

// ArrivalSpec describes one phase's arrival process. Rates are arrivals
// per second of scenario time; the sim backend converts through
// Spec.TicksPerSecond.
type ArrivalSpec struct {
	Kind string  `json:"kind"`
	Rate float64 `json:"rate"` // mean arrivals/s (periodic: exact; bursty: whole-phase mean)
	// RateEnd is the terminal rate of a ramp (required for ramp).
	RateEnd float64 `json:"rate_end,omitempty"`
	// OnS/OffS are the bursty dwell times in seconds (required for bursty).
	OnS  float64 `json:"on_s,omitempty"`
	OffS float64 `json:"off_s,omitempty"`
	// BurstRate is the arrival rate inside a bursty on-window; 0 derives
	// the rate that preserves the whole-phase mean Rate.
	BurstRate float64 `json:"burst_rate,omitempty"`
}

// AccessSpec describes one phase's access skew, realized as template
// selection in both backends (the wire protocol only lets a client pick
// declared templates, so template-selection skew is the only skew the two
// backends can share exactly).
type AccessSpec struct {
	Kind string `json:"kind"`
	// Theta is the Zipf exponent for zipf/hotshift (≥ 0; larger = more
	// skewed; θ ≤ 1 is supported, unlike math/rand.Zipf).
	Theta float64 `json:"theta,omitempty"`
	// ShiftEveryS rotates the hotshift ranking every this many seconds
	// (required for hotshift).
	ShiftEveryS float64 `json:"shift_every_s,omitempty"`
}

// NemesisSpec configures the live backend's per-phase fault proxy
// (internal/nemesis); fields mirror nemesis.Faults in JSON-friendly units.
type NemesisSpec struct {
	LatencyMS    float64 `json:"latency_ms,omitempty"`
	JitterMS     float64 `json:"jitter_ms,omitempty"`
	BandwidthBPS int64   `json:"bandwidth_bps,omitempty"`
	PReset       float64 `json:"p_reset,omitempty"`
	PDrop        float64 `json:"p_drop,omitempty"`
	PPartition   float64 `json:"p_partition,omitempty"`
}

// FaultSpec is one phase's optional fault layer. AbortProb drives the sim
// kernel's seeded transient-fault injection (sched.Config.FaultAbortProb:
// per executed tick, the running job is firm-aborted); Nemesis drives the
// live backend's TCP fault proxy. The two model different fault surfaces —
// transaction-kill versus transport damage — which is a documented parity
// caveat, not an accident: each backend injects the faults it can actually
// express.
type FaultSpec struct {
	AbortProb float64      `json:"abort_prob,omitempty"`
	Seed      int64        `json:"seed,omitempty"` // extra fault-RNG entropy; 0 derives from the scenario seed
	Nemesis   *NemesisSpec `json:"nemesis,omitempty"`
}

// PhaseSpec is one sequential phase of a scenario.
type PhaseSpec struct {
	Name      string      `json:"name"`
	DurationS float64     `json:"duration_s"`
	Arrival   ArrivalSpec `json:"arrival"`
	Access    AccessSpec  `json:"access"`
	// DeadlineMS is the firm deadline budget attached to every arrival,
	// milliseconds from arrival. 0 falls back to each base template's
	// relative deadline (sim) / no deadline (live).
	DeadlineMS float64 `json:"deadline_ms,omitempty"`
	// ReadFrac is the fraction of live arrivals issued as declared
	// read-only snapshot transactions; ReadFracEnd, when set, ramps the
	// fraction across the phase. Live backend only (the kernel has no
	// snapshot read path — a parity caveat; use mixshift access skew for
	// a mix shift both backends realize).
	ReadFrac    float64    `json:"read_frac,omitempty"`
	ReadFracEnd *float64   `json:"read_frac_end,omitempty"`
	Faults      *FaultSpec `json:"faults,omitempty"`
}

// WorkloadSpec parameterizes the base template set both backends share:
// the sim compiles instances of it, and a self-hosted pcpdad serves
// exactly it. Field meanings match workload.Config; zero values take the
// pcpdad generation defaults so a spec and a `pcpdad -n N -items I` server
// agree on the schema.
type WorkloadSpec struct {
	N           int     `json:"n"`
	Items       int     `json:"items"`
	Utilization float64 `json:"utilization,omitempty"` // default 0.5
	WriteProb   float64 `json:"write_prob,omitempty"`  // default 0.5
	PeriodMin   int     `json:"period_min,omitempty"`  // default 40 (ticks)
	PeriodMax   int     `json:"period_max,omitempty"`  // default 400
	OpsMin      int     `json:"ops_min,omitempty"`     // default 2
	OpsMax      int     `json:"ops_max,omitempty"`     // default 4
	Seed        int64   `json:"seed,omitempty"`        // 0 uses the scenario seed
}

// LiveSpec tunes the live backend's load generator.
type LiveSpec struct {
	Conns       int `json:"conns,omitempty"`  // default 8
	Window      int `json:"window,omitempty"` // pipelined in-flight window, default 32
	MaxAttempts int `json:"max_attempts,omitempty"`
	MaxInFlight int `json:"max_inflight,omitempty"`
}

// Spec is a full scenario.
type Spec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// TicksPerSecond is the sim backend's time scale: one second of
	// scenario time is this many kernel ticks. Default 100.
	TicksPerSecond int `json:"ticks_per_second,omitempty"`
	// Seeds is the sim backend's sweep width: each phase is simulated
	// under Seeds derived seeds and the SLO rows aggregate across them.
	// Default 3.
	Seeds int `json:"seeds,omitempty"`
	// Protocols restricts the sim backend; empty runs all of
	// sim.Protocols().
	Protocols []string     `json:"protocols,omitempty"`
	Workload  WorkloadSpec `json:"workload"`
	Phases    []PhaseSpec  `json:"phases"`
	Live      LiveSpec     `json:"live,omitempty"`
}

// Load reads and validates a scenario spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a scenario spec. Unknown fields are errors:
// a typo in a knob name must not silently run the default experiment.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	s.fill()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// fill applies the documented defaults in place.
func (s *Spec) fill() {
	if s.TicksPerSecond == 0 {
		s.TicksPerSecond = 100
	}
	if s.Seeds == 0 {
		s.Seeds = 3
	}
	w := &s.Workload
	if w.Utilization == 0 {
		w.Utilization = 0.5
	}
	if w.WriteProb == 0 {
		w.WriteProb = 0.5
	}
	if w.PeriodMin == 0 {
		w.PeriodMin = 40
	}
	if w.PeriodMax == 0 {
		w.PeriodMax = 400
	}
	if w.OpsMin == 0 {
		w.OpsMin = 2
	}
	if w.OpsMax == 0 {
		w.OpsMax = 4
	}
	if s.Live.Conns == 0 {
		s.Live.Conns = 8
	}
	if s.Live.Window == 0 {
		s.Live.Window = 32
	}
}

// Validate checks the spec. fill must have run (Load/Parse do both).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.TicksPerSecond < 1 {
		return fmt.Errorf("scenario %s: ticks_per_second %d < 1", s.Name, s.TicksPerSecond)
	}
	if s.Seeds < 1 {
		return fmt.Errorf("scenario %s: seeds %d < 1", s.Name, s.Seeds)
	}
	known := make(map[string]bool)
	for _, p := range sim.Protocols() {
		known[p] = true
	}
	for _, p := range s.Protocols {
		if !known[p] {
			return fmt.Errorf("scenario %s: unknown protocol %q (have %v)", s.Name, p, sim.Protocols())
		}
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	names := make(map[string]bool, len(s.Phases))
	for i := range s.Phases {
		p := &s.Phases[i]
		if p.Name == "" {
			return fmt.Errorf("scenario %s: phase %d: missing name", s.Name, i)
		}
		if names[p.Name] {
			return fmt.Errorf("scenario %s: duplicate phase name %q", s.Name, p.Name)
		}
		names[p.Name] = true
		if p.DurationS <= 0 {
			return fmt.Errorf("scenario %s: phase %s: duration_s %v must be > 0", s.Name, p.Name, p.DurationS)
		}
		if p.DurationS*float64(s.TicksPerSecond) < 1 {
			return fmt.Errorf("scenario %s: phase %s: duration_s %v is shorter than one tick at %d ticks/s",
				s.Name, p.Name, p.DurationS, s.TicksPerSecond)
		}
		if err := p.Arrival.validate(); err != nil {
			return fmt.Errorf("scenario %s: phase %s: %w", s.Name, p.Name, err)
		}
		if err := p.Access.validate(); err != nil {
			return fmt.Errorf("scenario %s: phase %s: %w", s.Name, p.Name, err)
		}
		if p.DeadlineMS < 0 {
			return fmt.Errorf("scenario %s: phase %s: negative deadline_ms", s.Name, p.Name)
		}
		if p.ReadFrac < 0 || p.ReadFrac > 1 {
			return fmt.Errorf("scenario %s: phase %s: read_frac %v out of [0,1]", s.Name, p.Name, p.ReadFrac)
		}
		if p.ReadFracEnd != nil && (*p.ReadFracEnd < 0 || *p.ReadFracEnd > 1) {
			return fmt.Errorf("scenario %s: phase %s: read_frac_end %v out of [0,1]", s.Name, p.Name, *p.ReadFracEnd)
		}
		if f := p.Faults; f != nil {
			if f.AbortProb < 0 || f.AbortProb > 1 {
				return fmt.Errorf("scenario %s: phase %s: abort_prob %v out of [0,1]", s.Name, p.Name, f.AbortProb)
			}
			if n := f.Nemesis; n != nil {
				for _, pr := range []float64{n.PReset, n.PDrop, n.PPartition} {
					if pr < 0 || pr > 1 {
						return fmt.Errorf("scenario %s: phase %s: nemesis probability %v out of [0,1]", s.Name, p.Name, pr)
					}
				}
			}
		}
	}
	cfg := s.workloadConfig()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("scenario %s: workload: %w", s.Name, err)
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	switch a.Kind {
	case ArrivalPeriodic, ArrivalPoisson:
	case ArrivalBursty:
		if a.OnS <= 0 || a.OffS < 0 {
			return fmt.Errorf("bursty arrivals need on_s > 0 and off_s >= 0 (got on=%v off=%v)", a.OnS, a.OffS)
		}
		if a.BurstRate < 0 {
			return fmt.Errorf("negative burst_rate %v", a.BurstRate)
		}
	case ArrivalRamp:
		if a.RateEnd < 0 {
			return fmt.Errorf("negative rate_end %v", a.RateEnd)
		}
	default:
		return fmt.Errorf("unknown arrival kind %q", a.Kind)
	}
	if a.Rate <= 0 {
		return fmt.Errorf("arrival rate %v must be > 0", a.Rate)
	}
	return nil
}

func (a *AccessSpec) validate() error {
	switch a.Kind {
	case "", AccessUniform, AccessMixShift:
	case AccessZipf:
		if a.Theta < 0 {
			return fmt.Errorf("negative zipf theta %v", a.Theta)
		}
	case AccessHotShift:
		if a.Theta < 0 {
			return fmt.Errorf("negative hotshift theta %v", a.Theta)
		}
		if a.ShiftEveryS <= 0 {
			return fmt.Errorf("hotshift needs shift_every_s > 0 (got %v)", a.ShiftEveryS)
		}
	default:
		return fmt.Errorf("unknown access kind %q", a.Kind)
	}
	return nil
}

// workloadConfig renders the base-set generator config.
func (s *Spec) workloadConfig() workload.Config {
	w := s.Workload
	seed := w.Seed
	if seed == 0 {
		seed = s.Seed
	}
	return workload.Config{
		Name:        s.Name + "-base",
		N:           w.N,
		Items:       w.Items,
		Utilization: w.Utilization,
		WriteProb:   w.WriteProb,
		PeriodMin:   rt.Ticks(w.PeriodMin),
		PeriodMax:   rt.Ticks(w.PeriodMax),
		OpsMin:      w.OpsMin,
		OpsMax:      w.OpsMax,
		Seed:        seed,
	}
}

// BaseSet generates the base template set the spec's phases instantiate —
// the same set a self-hosted pcpdad must serve for live parity.
func (s *Spec) BaseSet() (*txn.Set, error) {
	set, err := workload.Generate(s.workloadConfig())
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return set, nil
}

// phaseSeed derives the deterministic RNG seed of (phase, sweep-seed):
// distinct odd multipliers keep the streams apart without any shared
// state. Both backends use it, so a live run and sweep seed 0 draw the
// same arrival schedule and template sequence.
func (s *Spec) phaseSeed(phase, sweep int) int64 {
	return s.Seed + int64(phase)*1_000_003 + int64(sweep)*7_919
}
