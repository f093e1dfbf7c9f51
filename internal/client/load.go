package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pcpda/internal/wire"
)

// LoadConfig parameterizes the load generator. Two modes:
//
//   - Closed loop (ArrivalRate == 0): Conns workers, each with its own
//     connection, each running one transaction at a time (begin → declared
//     steps → commit) until Txns transactions have committed in total.
//     Measures the system's capacity — offered load adapts to completion.
//
//   - Open loop (ArrivalRate > 0): transactions arrive by a Poisson
//     process at ArrivalRate per second for Duration, regardless of how
//     fast earlier ones complete. This is what real overload looks like —
//     arrivals do not slow down because the server is slow — and it is the
//     only mode that can push the server past saturation, which is the
//     point: it measures goodput and deadline misses under offered loads
//     the server cannot absorb.
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Conns is the number of concurrent workers (each owns a connection
	// pool of one). Default 8.
	Conns int
	// Txns is the closed-loop committed-transaction target. Default 1000.
	// Ignored in open-loop mode.
	Txns int
	// Seed makes the workload reproducible: the arrival process draws from
	// Seed, worker w draws written values and backoff jitter from Seed+w.
	Seed int64
	// OpTimeout bounds each request/reply round trip. Default 10s.
	OpTimeout time.Duration
	// MaxAttempts bounds retries per transaction. Default 16 — load
	// generation under deliberate overload needs more patience than the
	// Client default.
	MaxAttempts int
	// Pipelined switches every worker from the strict client (a round trip
	// per step) to the pipelined one: each transaction is one TXN frame,
	// several in flight per connection.
	Pipelined bool
	// Window bounds requests in flight per pipelined connection.
	// Default 32.
	Window int
	// SpinUnder is the open-loop pacing threshold: inter-arrival gaps
	// shorter than this are paced by a yield-spin instead of the sleeper
	// (whose granularity on a coarse-timer host is ~10ms, far wider than
	// the sub-millisecond gaps of a multi-thousand/s arrival process).
	// Longer gaps sleep until SpinUnder remains, then spin the residue.
	// Default 10ms.
	SpinUnder time.Duration
	// ReadFrac is the fraction of transactions issued as declared
	// read-only snapshot transactions (lock-free server-side, admission
	// bypassed). Each reads 1–4 random items from the schema's item
	// space. Requires Pipelined. 0 = all
	// updates.
	ReadFrac float64

	// ArrivalRate switches to open loop: mean arrivals per second of the
	// Poisson process. 0 selects the closed loop.
	ArrivalRate float64
	// Duration bounds the open-loop arrival window. Default 5s.
	Duration time.Duration
	// DeadlineBudget is the firm deadline attached to every open-loop
	// BEGIN, measured from arrival: the server sheds infeasible work, and
	// a commit later than this counts as a deadline miss, not goodput.
	// 0 sends no deadline (every commit is on time).
	DeadlineBudget time.Duration
	// MaxInFlight bounds open-loop arrivals waiting for a worker; past it
	// the lowest-priority waiting arrival is dropped client-side and
	// counted as Overrun (an open-loop generator must shed too, or it
	// measures its own queue — and it must shed in priority order, or it
	// reintroduces the priority inversion the server's admission queue
	// avoids). Default 4×Conns.
	MaxInFlight int
	// RetryBudget caps retries across all workers; allocated internally
	// (0.2 tokens per transaction, burst 10×Conns) when nil.
	RetryBudget *RetryBudget

	// ArrivalTimes, when non-nil, replaces the open loop's Poisson draw
	// with an explicit schedule: ascending offsets from the start of the
	// arrival window at which arrivals fire. The absolute-time
	// sleep-then-spin pacer is unchanged, so generalized arrival processes
	// (periodic, bursty on/off, ramps — see internal/scenario) reuse the
	// same overload machinery. Offsets past Duration are dropped.
	// ArrivalRate must still be > 0 (it selects the open loop and is
	// reported as the nominal offered rate).
	ArrivalTimes []time.Duration
	// PickTemplate, when non-nil, chooses the template of each update
	// transaction instead of the uniform draw. It receives the RNG that
	// would have drawn uniformly and, in the open loop, the arrival's
	// fraction through the arrival window in [0,1) (closed-loop calls
	// pass 0). The returned index must be in [0, len(schema.Templates)).
	PickTemplate func(rng *rand.Rand, frac float64) int
	// ReadFracAt, when non-nil, overrides ReadFrac per open-loop arrival
	// as a function of the arrival's fraction through the window — a
	// read-mix shift inside one run. Requires Pipelined, like ReadFrac.
	ReadFracAt func(frac float64) float64
	// SeriesBuckets, when > 0, splits the open-loop arrival window into
	// this many equal time buckets and reports per-bucket commit counts
	// (LoadReport.Series) — the throughput-over-time series.
	SeriesBuckets int
	// PaceSlices splits the open-loop arrival window into this many
	// slices, each reporting offered-vs-achieved arrival rates and the
	// worst pacing lag (LoadReport.Pacing) — so an overload run shows
	// WHERE the generator collapsed, not just that it did over the whole
	// run. Default 5 in open-loop mode; negative disables.
	PaceSlices int
}

// TierReport aggregates one priority tier (all templates sharing one base
// priority) of a load run.
type TierReport struct {
	Priority  int32   `json:"priority"`
	Offered   int64   `json:"offered"`             // arrivals (open loop) or transactions started (closed loop)
	Committed int64   `json:"committed"`           // commits, on time or not
	OnTime    int64   `json:"on_time"`             // commits within DeadlineBudget of arrival
	Shed      int64   `json:"shed"`                // attempts refused with CodeShed
	MissRatio float64 `json:"deadline_miss_ratio"` // 1 - OnTime/Offered
}

// SeriesBucket is one time bucket of the throughput-over-time series.
type SeriesBucket struct {
	StartS    float64 `json:"start_s"` // bucket bounds, seconds from run start
	EndS      float64 `json:"end_s"`
	Committed int64   `json:"committed"`
	OnTime    int64   `json:"on_time"`
}

// PaceSlice reports one slice of the open-loop arrival window: how many
// arrivals were scheduled in the slice versus actually emitted during it,
// and the worst emission lag of the slice's scheduled arrivals. A healthy
// generator has AchievedRate tracking OfferedRate and sub-millisecond lag;
// on a coarse-timer 1-core box the slices localize where pacing collapses.
type PaceSlice struct {
	StartS       float64 `json:"start_s"` // slice bounds, seconds from run start
	EndS         float64 `json:"end_s"`
	Scheduled    int64   `json:"scheduled"`     // arrivals the process scheduled in the slice
	Emitted      int64   `json:"emitted"`       // arrivals actually emitted during the slice
	OfferedRate  float64 `json:"offered_rate"`  // Scheduled / slice width
	AchievedRate float64 `json:"achieved_rate"` // Emitted / slice width
	MaxLagMS     float64 `json:"max_lag_ms"`    // worst (emission − schedule) of the slice
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Committed int64         `json:"committed"`
	Attempts  int64         `json:"attempts"` // transactions tried (each may retry internally)
	Retries   int64         `json:"retries"`  // per-attempt retries across all workers
	Failed    int64         `json:"failed"`   // transactions abandoned (attempts exhausted or fatal)
	Elapsed   time.Duration `json:"elapsed_ns"`

	// Latency percentiles over committed transactions: begin→commit in the
	// closed loop, arrival→commit in the open loop (queueing included —
	// that is the latency a deadline is spent against).
	P50  time.Duration `json:"p50_ns"`
	P90  time.Duration `json:"p90_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`

	// ROCommitted counts committed read-only snapshot transactions
	// (included in Committed); Committed - ROCommitted is the update
	// throughput of a mixed run.
	ROCommitted int64 `json:"ro_committed,omitempty"`

	// Open-loop and overload accounting.
	Offered           int64        `json:"offered,omitempty"`       // open loop: arrivals generated
	OfferedRate       float64      `json:"offered_rate,omitempty"`  // open loop: configured arrivals/s
	AchievedRate      float64      `json:"achieved_rate,omitempty"` // open loop: arrivals actually generated per second of the arrival window
	Overrun           int64        `json:"overrun,omitempty"`       // arrivals dropped client-side at MaxInFlight
	OnTime            int64        `json:"on_time,omitempty"`       // commits within DeadlineBudget (== Committed when no budget)
	Shed              int64        `json:"shed,omitempty"`          // CodeShed rejections observed
	Infeasible        int64        `json:"infeasible,omitempty"`    // CodeInfeasible rejections observed
	RetriesSuppressed int64        `json:"retries_suppressed"`      // retries the budget refused
	Tiers             []TierReport `json:"tiers,omitempty"`         // per-priority breakdown, highest first

	// Series is the throughput-over-time view (Config.SeriesBuckets);
	// Pacing the per-slice offered-vs-achieved view (Config.PaceSlices).
	// Both open loop only.
	Series []SeriesBucket `json:"series,omitempty"`
	Pacing []PaceSlice    `json:"pacing,omitempty"`
}

// loadCounters is the hot-path (atomic) form of LoadReport's shared
// tallies — the counters worker goroutines bump concurrently. Like
// tierCounters, it exists so the JSON-facing report stays plain:
// finishReport folds it in once the workers have joined.
type loadCounters struct {
	committed   atomic.Int64
	attempts    atomic.Int64
	retries     atomic.Int64
	failed      atomic.Int64
	roCommitted atomic.Int64
	onTime      atomic.Int64 // read-only commits only; tier commits tally in tierCounters
	shed        atomic.Int64
	infeasible  atomic.Int64
}

// Throughput returns committed transactions per second.
func (r *LoadReport) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Goodput returns on-time committed transactions per second — the only
// rate that matters under firm deadlines.
func (r *LoadReport) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OnTime) / r.Elapsed.Seconds()
}

func (cfg *LoadConfig) fill() {
	if cfg.Conns <= 0 {
		cfg.Conns = 8
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 1000
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 16
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * cfg.Conns
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.SpinUnder <= 0 {
		cfg.SpinUnder = 10 * time.Millisecond
	}
	if cfg.RetryBudget == nil {
		cfg.RetryBudget = NewRetryBudget(0.2, float64(10*cfg.Conns))
	}
	if cfg.ReadFrac < 0 {
		cfg.ReadFrac = 0
	}
	if cfg.ReadFrac > 1 {
		cfg.ReadFrac = 1
	}
	if cfg.ArrivalRate > 0 && cfg.PaceSlices == 0 {
		cfg.PaceSlices = 5
	}
}

// RunLoad drives the server at cfg.Addr with a seeded workload — closed
// loop by default, open loop when ArrivalRate is set — and reports
// throughput, goodput and latency. It stops early (with the partial
// report and ctx's error) if ctx is cancelled.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	probe, err := Dial(cfg.Addr, cfg.OpTimeout)
	if err != nil {
		return nil, err
	}
	schema := probe.Schema()
	_ = probe.Close()
	if len(schema.Templates) == 0 {
		return nil, errors.New("client: server exports no transaction types")
	}
	if cfg.ReadFrac > 0 || cfg.ReadFracAt != nil {
		if !cfg.Pipelined {
			return nil, errors.New("client: ReadFrac requires Pipelined (the strict worker runs update transactions only)")
		}
		if len(schemaItems(schema)) == 0 {
			return nil, errors.New("client: ReadFrac set but the schema declares no items")
		}
	}
	if cfg.ArrivalRate > 0 {
		return runOpenLoop(ctx, cfg, schema)
	}
	return runClosedLoop(ctx, cfg, schema)
}

func runClosedLoop(ctx context.Context, cfg LoadConfig, schema *wire.HelloOK) (*LoadReport, error) {
	rep := &LoadReport{}
	cnt := &loadCounters{}
	tiers := newTierStats(schema)
	var remaining atomic.Int64
	remaining.Store(int64(cfg.Txns))
	lats := make([][]time.Duration, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cfg.Pipelined {
				errs[w] = pipelinedWorker(ctx, cfg, schema, tiers, int64(w), &remaining, cnt, &lats[w])
			} else {
				errs[w] = loadWorker(ctx, cfg, schema, tiers, int64(w), &remaining, cnt, &lats[w])
			}
		}(w)
	}
	wg.Wait()
	finishReport(rep, cfg, tiers, cnt, lats, start)
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, ctx.Err()
}

// loadRunner is one worker's transaction driver — strict request/reply or
// pipelined bursts, behind the same do() shape — with the shared retry
// policy wired to the run's counters.
type loadRunner struct {
	do    func(tmpl wire.TemplateInfo, budget time.Duration) error
	doRO  func(items []uint32) error // nil in strict mode
	close func()
}

func newLoadRunner(cfg LoadConfig, cnt *loadCounters, id int64, rng *rand.Rand,
	hook func(wire.ErrorCode)) loadRunner {
	if cfg.Pipelined {
		pc := NewPipeClient(cfg.Addr, cfg.OpTimeout, cfg.Window, cfg.Seed^id)
		pc.MaxAttempts = cfg.MaxAttempts
		pc.Retries = &cnt.retries
		pc.Budget = cfg.RetryBudget
		pc.CodeHook = hook
		return loadRunner{
			do: func(tmpl wire.TemplateInfo, budget time.Duration) error {
				return pc.DoTxn(tmpl.Name, budget, pipelineSteps(tmpl, rng))
			},
			doRO:  pc.DoReadTxn,
			close: pc.Close,
		}
	}
	pool := NewPool(cfg.Addr, cfg.OpTimeout, 1)
	cl := NewClient(pool, cfg.Seed^id)
	cl.MaxAttempts = cfg.MaxAttempts
	cl.Retries = &cnt.retries
	cl.Budget = cfg.RetryBudget
	cl.CodeHook = hook
	return loadRunner{
		do: func(tmpl wire.TemplateInfo, budget time.Duration) error {
			return cl.DoDeadline(tmpl.Name, budget, runSteps(tmpl, rng))
		},
		close: pool.Close,
	}
}

// loadWorker is one closed-loop connection: claim a transaction from the
// shared budget, run it to commit (retrying retryable failures), record
// the latency, repeat.
func loadWorker(ctx context.Context, cfg LoadConfig, schema *wire.HelloOK, tiers *tierStats,
	id int64, remaining *atomic.Int64, cnt *loadCounters, lats *[]time.Duration) error {
	rng := rand.New(rand.NewSource(cfg.Seed + id))
	var curTier *tierCounters
	r := newLoadRunner(cfg, cnt, id, rng, func(code wire.ErrorCode) { countCode(cnt, curTier, code) })
	defer r.close()

	for remaining.Add(-1) >= 0 {
		if ctx.Err() != nil {
			return nil
		}
		tmpl := pickTemplate(&cfg, schema, rng, 0)
		curTier = tiers.of(tmpl.Priority)
		curTier.offered.Add(1)
		begin := time.Now()
		err := r.do(tmpl, 0)
		cnt.attempts.Add(1)
		if err != nil {
			cnt.failed.Add(1)
			var remote *wire.RemoteError
			if ctx.Err() != nil {
				return nil
			}
			// Draining and cancellation are orderly shutdown, not failures
			// worth killing the run over; anything else is.
			if errors.As(err, &remote) &&
				(remote.Code == wire.CodeDraining || remote.Code == wire.CodeCancelled) {
				return nil
			}
			if errors.As(err, &remote) && remote.Code.Retryable() {
				// Return the budget entry so the run still reaches its
				// committed-transaction target despite the abandonment.
				remaining.Add(1)
				continue
			}
			return fmt.Errorf("client: worker %d: %w", id, err)
		}
		cnt.committed.Add(1)
		curTier.committed.Add(1)
		curTier.onTime.Add(1) // no deadline budget in the closed loop
		*lats = append(*lats, time.Since(begin))
	}
	return nil
}

// pipelinedWorker is the closed-loop worker in pipelined mode. Where
// loadWorker runs one transaction at a time, this keeps a bounded queue
// of whole-transaction bursts in flight on one connection — the server
// executes bursts in arrival order, so back-to-back transactions overlap
// on the wire without changing their serialization. The common case costs
// zero waits and a share of one write per transaction (the bursts
// submitted since the worker last had to wait leave together); failures
// fall back to the shared retry policy, synchronously, so overload behaves
// exactly like the strict worker (budgeted retries, counted sheds, orderly
// stop on drain).
func pipelinedWorker(ctx context.Context, cfg LoadConfig, schema *wire.HelloOK, tiers *tierStats,
	id int64, remaining *atomic.Int64, cnt *loadCounters, lats *[]time.Duration) error {
	rng := rand.New(rand.NewSource(cfg.Seed + id))
	var curTier *tierCounters
	pc := NewPipeClient(cfg.Addr, cfg.OpTimeout, cfg.Window, cfg.Seed^id)
	pc.MaxAttempts = cfg.MaxAttempts
	pc.Retries = &cnt.retries
	pc.Budget = cfg.RetryBudget
	pc.CodeHook = func(code wire.ErrorCode) { countCode(cnt, curTier, code) }
	defer pc.Close()

	roItems := schemaItems(schema)

	type inflight struct {
		tmpl  wire.TemplateInfo
		tier  *tierCounters // nil for read-only bursts
		ro    bool
		items []uint32 // read-only: the snapshot read set, for the retry path
		begin time.Time
		fut   *TxnFuture
	}
	// Transactions in flight per connection: a quarter of the request
	// window, at least one — the depth this worker has always run at (a
	// transaction used to take about four window slots; it takes one now,
	// and the rest of the window is headroom).
	depth := max(1, cfg.Window/4)
	queue := make([]inflight, 0, depth)
	errStop := errors.New("load: orderly stop")

	// settle resolves the oldest in-flight burst: account the commit, or
	// run the whole retry chain synchronously (the overlap is for the
	// common case; a failed transaction is worth a stall).
	account := func(t inflight) {
		cnt.committed.Add(1)
		if t.ro {
			cnt.roCommitted.Add(1)
			cnt.onTime.Add(1) // read-only has no tier; tally directly
		} else {
			t.tier.committed.Add(1)
			t.tier.onTime.Add(1) // no deadline budget in the closed loop
		}
		*lats = append(*lats, time.Since(t.begin))
	}
	settle := func() error {
		t := queue[0]
		queue = queue[1:]
		err := t.fut.Wait()
		cnt.attempts.Add(1)
		if err == nil {
			account(t)
			return nil
		}
		var remote *wire.RemoteError
		if ctx.Err() != nil || !errors.As(err, &remote) {
			if ctx.Err() != nil {
				return errStop
			}
			return err // transport or desync: fatal, as in loadWorker
		}
		countCode(cnt, t.tier, remote.Code)
		switch {
		case remote.Code == wire.CodeDraining || remote.Code == wire.CodeCancelled:
			return errStop
		case !remote.Code.Retryable():
			return err
		}
		// The burst was attempt one; hand the rest of the chain to DoTxn
		// under the shared budget.
		if cfg.RetryBudget != nil && !cfg.RetryBudget.take() {
			cnt.failed.Add(1)
			remaining.Add(1)
			return nil
		}
		cnt.retries.Add(1)
		curTier = t.tier // nil for read-only: countCode skips tier tallies
		if t.ro {
			err = pc.DoReadTxn(t.items)
		} else {
			err = pc.DoTxn(t.tmpl.Name, 0, pipelineSteps(t.tmpl, rng))
		}
		if err == nil {
			account(t)
			return nil
		}
		cnt.failed.Add(1)
		if errors.As(err, &remote) {
			if remote.Code == wire.CodeDraining || remote.Code == wire.CodeCancelled {
				return errStop
			}
			if remote.Code.Retryable() {
				remaining.Add(1) // abandoned: return the budget entry
				return nil
			}
		}
		return fmt.Errorf("client: worker %d: %w", id, err)
	}
	drain := func() error {
		for len(queue) > 0 {
			if err := settle(); err != nil {
				return err
			}
		}
		return nil
	}
	// stopped maps the orderly stop to a clean worker exit.
	stopped := func(err error) error {
		if errors.Is(err, errStop) {
			return nil
		}
		return err
	}

	for remaining.Add(-1) >= 0 {
		if ctx.Err() != nil {
			break
		}
		ro := cfg.ReadFrac > 0 && rng.Float64() < cfg.ReadFrac
		tmpl := pickTemplate(&cfg, schema, rng, 0)
		tier := tiers.of(tmpl.Priority)
		if !ro {
			tier.offered.Add(1)
		}
		if cfg.RetryBudget != nil {
			cfg.RetryBudget.credit() // each transaction earns, as a Do call would
		}
		c, err := pc.get()
		if err != nil {
			return fmt.Errorf("client: worker %d: %w", id, err)
		}
		// One whole transaction, one TXN frame — a declared read-only
		// snapshot waits for no admission server-side.
		t := inflight{tmpl: tmpl, tier: tier, ro: ro}
		if ro {
			t.tier, t.items = nil, roPick(rng, roItems)
			t.fut, err = c.SubmitReadTxn(t.items)
		} else {
			t.fut, err = c.SubmitTxn(tmpl.Name, 0, pipelineSteps(tmpl, rng))
		}
		if err != nil {
			// The connection died with bursts in flight: resolve what we can,
			// then report (drain's verdict wins — it sees the same error with
			// per-transaction context).
			if dErr := drain(); dErr != nil {
				return stopped(dErr)
			}
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("client: worker %d: %w", id, err)
		}
		t.begin = time.Now()
		queue = append(queue, t)
		if len(queue) >= depth {
			if err := settle(); err != nil {
				return stopped(err)
			}
		}
	}
	return stopped(drain())
}

// openJob is one open-loop arrival awaiting a worker.
type openJob struct {
	tmpl    wire.TemplateInfo
	ro      bool     // declared read-only snapshot transaction
	items   []uint32 // read-only: the snapshot read set
	arrival time.Time
	seq     uint64
}

// openQueue is the generator-side waiting room, and it applies the same
// rule as the server's admission queue: highest priority leaves first,
// and when the room is full the lowest-priority occupant is displaced.
// A FIFO here would undo server-side priority shedding — a top-priority
// arrival would wait behind doomed low-priority work for a free worker —
// so the priority inversion the server avoids would simply reappear one
// hop earlier. Within a priority, FIFO by arrival.
type openQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []openJob // sorted: priority desc, seq asc
	max    int
	seq    uint64
	closed bool
}

func newOpenQueue(max int) *openQueue {
	q := &openQueue{max: max}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push inserts a job, displacing the lowest-priority occupant when full.
// It returns false when the job itself (or, transitively, the displaced
// occupant) was dropped — exactly one arrival is lost per push to a full
// queue, always the least important one present.
func (q *openQueue) push(j openJob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j.seq = q.seq
	q.seq++
	if len(q.items) >= q.max {
		low := q.items[len(q.items)-1]
		if j.tmpl.Priority <= low.tmpl.Priority {
			return false // the newcomer is the least important: drop it
		}
		q.items = q.items[:len(q.items)-1] // displace the tail
		defer q.cond.Signal()
		q.insert(j)
		return false // something was still dropped: count the overrun
	}
	q.insert(j)
	q.cond.Signal()
	return true
}

func (q *openQueue) insert(j openJob) {
	i := sort.Search(len(q.items), func(i int) bool {
		it := q.items[i]
		return it.tmpl.Priority < j.tmpl.Priority ||
			(it.tmpl.Priority == j.tmpl.Priority && it.seq > j.seq)
	})
	q.items = append(q.items, openJob{})
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = j
}

// pop blocks for the highest-priority waiting job; ok is false once the
// queue is closed and empty.
func (q *openQueue) pop() (openJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return openJob{}, false
	}
	j := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return j, true
}

func (q *openQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// pickTemplate draws the next update transaction's template: the
// PickTemplate hook when set, the uniform draw otherwise. frac is the
// arrival's position in the open-loop window (0 in the closed loop).
func pickTemplate(cfg *LoadConfig, schema *wire.HelloOK, rng *rand.Rand, frac float64) wire.TemplateInfo {
	if cfg.PickTemplate != nil {
		return schema.Templates[cfg.PickTemplate(rng, frac)]
	}
	return schema.Templates[rng.Intn(len(schema.Templates))]
}

// seriesTracker buckets commits over the arrival window. Workers record
// concurrently, so the buckets are atomics; commits landing after the
// window (the in-flight tail) clamp into the last bucket.
type seriesTracker struct {
	start  time.Time
	width  time.Duration
	commit []atomic.Int64
	onTime []atomic.Int64
}

func newSeriesTracker(start time.Time, window time.Duration, n int) *seriesTracker {
	return &seriesTracker{
		start:  start,
		width:  window / time.Duration(n),
		commit: make([]atomic.Int64, n),
		onTime: make([]atomic.Int64, n),
	}
}

func (s *seriesTracker) record(onTime bool) {
	if s == nil {
		return
	}
	i := int(time.Since(s.start) / s.width)
	if i >= len(s.commit) {
		i = len(s.commit) - 1
	}
	s.commit[i].Add(1)
	if onTime {
		s.onTime[i].Add(1)
	}
}

func (s *seriesTracker) report() []SeriesBucket {
	out := make([]SeriesBucket, len(s.commit))
	for i := range out {
		out[i] = SeriesBucket{
			StartS:    (time.Duration(i) * s.width).Seconds(),
			EndS:      (time.Duration(i+1) * s.width).Seconds(),
			Committed: s.commit[i].Load(),
			OnTime:    s.onTime[i].Load(),
		}
	}
	return out
}

// paceTracker accumulates per-slice pacing statistics. Only the arrival
// goroutine touches it, so the counters are plain.
type paceTracker struct {
	width     time.Duration
	scheduled []int64
	emitted   []int64
	maxLag    []time.Duration
}

func newPaceTracker(window time.Duration, n int) *paceTracker {
	return &paceTracker{
		width:     window / time.Duration(n),
		scheduled: make([]int64, n),
		emitted:   make([]int64, n),
		maxLag:    make([]time.Duration, n),
	}
}

// arrival records one emitted arrival: sched is its scheduled offset from
// the run start, actual the offset it was actually emitted at.
func (p *paceTracker) arrival(sched, actual time.Duration) {
	clamp := func(d time.Duration) int {
		i := int(d / p.width)
		if i < 0 {
			i = 0
		}
		if i >= len(p.scheduled) {
			i = len(p.scheduled) - 1
		}
		return i
	}
	si := clamp(sched)
	p.scheduled[si]++
	p.emitted[clamp(actual)]++
	if lag := actual - sched; lag > p.maxLag[si] {
		p.maxLag[si] = lag
	}
}

func (p *paceTracker) report() []PaceSlice {
	out := make([]PaceSlice, len(p.scheduled))
	w := p.width.Seconds()
	for i := range out {
		out[i] = PaceSlice{
			StartS:       float64(i) * w,
			EndS:         float64(i+1) * w,
			Scheduled:    p.scheduled[i],
			Emitted:      p.emitted[i],
			MaxLagMS:     float64(p.maxLag[i]) / float64(time.Millisecond),
			OfferedRate:  float64(p.scheduled[i]) / w,
			AchievedRate: float64(p.emitted[i]) / w,
		}
	}
	return out
}

func runOpenLoop(ctx context.Context, cfg LoadConfig, schema *wire.HelloOK) (*LoadReport, error) {
	rep := &LoadReport{}
	cnt := &loadCounters{}
	tiers := newTierStats(schema)
	jobs := newOpenQueue(cfg.MaxInFlight)
	lats := make([][]time.Duration, cfg.Conns)
	var wg sync.WaitGroup
	start := time.Now()
	var series *seriesTracker
	if cfg.SeriesBuckets > 0 {
		series = newSeriesTracker(start, cfg.Duration, cfg.SeriesBuckets)
	}
	var pace *paceTracker
	if cfg.PaceSlices > 0 {
		pace = newPaceTracker(cfg.Duration, cfg.PaceSlices)
	}
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			openWorker(ctx, cfg, tiers, int64(w), jobs, cnt, &lats[w], series)
		}(w)
	}

	// The arrival process: exponential inter-arrival times at ArrivalRate,
	// template drawn per arrival — all from one rng, so the offered
	// workload is a deterministic function of the seed regardless of how
	// the server behaves. Arrival times are absolute (each scheduled from
	// the previous scheduled time, not from "now"): when the scheduler
	// falls behind it emits the overdue arrivals immediately instead of
	// silently stretching every gap by its own overhead, so the offered
	// rate actually is ArrivalRate. An arrival finding MaxInFlight jobs
	// outstanding is dropped here: open-loop latency must be measured
	// against the server's queueing, not a client-side backlog of stale
	// arrivals.
	// Pacing is hybrid sleep-then-spin: the sleeper handles the bulk of a
	// long gap, but the last SpinUnder of every gap is paced by a yield
	// loop. On a host whose timer granularity is ~10ms a pure sleeper
	// cannot hit the sub-millisecond gaps of a multi-thousand/s Poisson
	// process — it oversleeps, then dumps the overdue arrivals in bursts.
	// The spin costs one core's worth of yields but makes the achieved
	// rate track the offered rate (both are reported, so the sweep shows
	// when it does not).
	rng := rand.New(rand.NewSource(cfg.Seed))
	items := schemaItems(schema)
	// Read-only arrivals queue at the top priority: they bypass server-side
	// admission entirely, so holding them behind updates in the client
	// queue would manufacture a wait the server never imposes.
	roPri := int32(0)
	for _, tmpl := range schema.Templates {
		if tmpl.Priority > roPri {
			roPri = tmpl.Priority
		}
	}
	deadline := start.Add(cfg.Duration)
	next := start
	timer := time.NewTimer(0)
	defer timer.Stop()
	schedIdx := 0
arrivals:
	for {
		if cfg.ArrivalTimes != nil {
			// Explicit schedule: offsets computed up front by the caller
			// (internal/scenario's arrival processes). Same absolute-time
			// pacing below; overdue arrivals still fire immediately.
			if schedIdx >= len(cfg.ArrivalTimes) {
				break
			}
			next = start.Add(cfg.ArrivalTimes[schedIdx])
			schedIdx++
		} else {
			next = next.Add(time.Duration(rng.ExpFloat64() / cfg.ArrivalRate * float64(time.Second)))
		}
		if next.After(deadline) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			if wait > cfg.SpinUnder {
				timer.Reset(wait - cfg.SpinUnder)
				select {
				case <-ctx.Done():
					break arrivals
				case <-timer.C:
				}
			}
			for time.Until(next) > 0 {
				if ctx.Err() != nil {
					break arrivals
				}
				runtime.Gosched()
			}
		} else if ctx.Err() != nil {
			break
		}
		frac := float64(next.Sub(start)) / float64(cfg.Duration)
		if pace != nil {
			pace.arrival(next.Sub(start), time.Since(start))
		}
		rf := cfg.ReadFrac
		if cfg.ReadFracAt != nil {
			rf = cfg.ReadFracAt(frac)
		}
		if rf > 0 && rng.Float64() < rf {
			rep.Offered++
			j := openJob{
				tmpl:    wire.TemplateInfo{Name: "read-only", Priority: roPri},
				ro:      true,
				items:   roPick(rng, items),
				arrival: time.Now(),
			}
			if !jobs.push(j) {
				rep.Overrun++
			}
			continue
		}
		tmpl := pickTemplate(&cfg, schema, rng, frac)
		rep.Offered++
		tiers.of(tmpl.Priority).offered.Add(1)
		if !jobs.push(openJob{tmpl: tmpl, arrival: time.Now()}) {
			rep.Overrun++
		}
	}
	// The achieved rate is measured over the arrival window only (before
	// waiting out the in-flight tail), against the configured rate: a gap
	// between the two means the generator, not the server, was the
	// bottleneck.
	rep.OfferedRate = cfg.ArrivalRate
	if w := time.Since(start); w > 0 {
		rep.AchievedRate = float64(rep.Offered) / w.Seconds()
	}
	if pace != nil {
		rep.Pacing = pace.report()
	}
	jobs.close()
	wg.Wait()
	finishReport(rep, cfg, tiers, cnt, lats, start)
	if series != nil {
		rep.Series = series.report()
	}
	return rep, ctx.Err()
}

// openWorker drains arrivals. Unlike the closed-loop worker it never
// returns an error: under nemesis faults broken connections and exhausted
// attempts are expected outcomes to count, not reasons to stop offering
// load.
func openWorker(ctx context.Context, cfg LoadConfig, tiers *tierStats,
	id int64, jobs *openQueue, cnt *loadCounters, lats *[]time.Duration, series *seriesTracker) {
	rng := rand.New(rand.NewSource(cfg.Seed + id))
	var curTier *tierCounters
	r := newLoadRunner(cfg, cnt, id, rng, func(code wire.ErrorCode) { countCode(cnt, curTier, code) })
	defer r.close()

	for {
		j, ok := jobs.pop()
		if !ok {
			return
		}
		if ctx.Err() != nil {
			continue // drain the queue so nothing is left behind
		}
		if j.ro {
			curTier = nil // read-only has no tier; countCode skips tier tallies
		} else {
			curTier = tiers.of(j.tmpl.Priority)
		}
		budget := cfg.DeadlineBudget
		if budget > 0 {
			// The deadline is anchored at arrival; hand the server only
			// what remains. A job whose budget evaporated waiting for a
			// worker is dropped without a round trip.
			budget -= time.Since(j.arrival)
			if budget <= 0 {
				cnt.failed.Add(1)
				continue
			}
		}
		var err error
		if j.ro {
			err = r.doRO(j.items)
		} else {
			err = r.do(j.tmpl, budget)
		}
		cnt.attempts.Add(1)
		if err != nil {
			cnt.failed.Add(1)
			continue
		}
		lat := time.Since(j.arrival)
		cnt.committed.Add(1)
		onTime := cfg.DeadlineBudget <= 0 || lat <= cfg.DeadlineBudget
		series.record(onTime)
		if j.ro {
			cnt.roCommitted.Add(1)
			if onTime {
				cnt.onTime.Add(1) // no tier: tally directly
			}
		} else {
			curTier.committed.Add(1)
			if onTime {
				curTier.onTime.Add(1)
			}
		}
		*lats = append(*lats, lat)
	}
}

// runSteps replays a template's declared steps on the live transaction.
func runSteps(tmpl wire.TemplateInfo, rng *rand.Rand) func(c *Conn) error {
	return func(c *Conn) error {
		for _, st := range tmpl.Steps {
			switch st.Op {
			case wire.OpRead:
				if _, err := c.Read(st.Item); err != nil {
					return err
				}
			case wire.OpWrite:
				if err := c.Write(st.Item, rng.Int63n(1<<30)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// pipelineSteps renders a template's declared steps as wire messages for
// one pipelined burst (compute steps have no wire op, as in runSteps).
func pipelineSteps(tmpl wire.TemplateInfo, rng *rand.Rand) []wire.Message {
	steps := make([]wire.Message, 0, len(tmpl.Steps))
	for _, st := range tmpl.Steps {
		switch st.Op {
		case wire.OpRead:
			steps = append(steps, &wire.Read{Item: st.Item})
		case wire.OpWrite:
			steps = append(steps, &wire.Write{Item: st.Item, Value: rng.Int63n(1 << 30)})
		}
	}
	return steps
}

// schemaItems collects the distinct items named by the schema's template
// steps, ascending — the item space a read-only mix draws its snapshot
// read sets from (so reads land on the keys updates are contending on).
func schemaItems(schema *wire.HelloOK) []uint32 {
	seen := make(map[uint32]bool)
	var items []uint32
	for _, tmpl := range schema.Templates {
		for _, st := range tmpl.Steps {
			switch st.Op {
			case wire.OpRead, wire.OpWrite:
				if !seen[st.Item] {
					seen[st.Item] = true
					items = append(items, st.Item)
				}
			}
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// roPick draws the read set for one read-only snapshot transaction:
// 1–4 items, sampled with replacement from the schema's item space.
func roPick(rng *rand.Rand, items []uint32) []uint32 {
	n := 1 + rng.Intn(min(4, len(items)))
	out := make([]uint32, n)
	for i := range out {
		out[i] = items[rng.Intn(len(items))]
	}
	return out
}

// countCode tallies typed overload rejections the Client observes
// (including retried ones). Called from worker goroutines via CodeHook.
func countCode(cnt *loadCounters, tier *tierCounters, code wire.ErrorCode) {
	switch code {
	case wire.CodeShed:
		cnt.shed.Add(1)
		if tier != nil {
			tier.shed.Add(1)
		}
	case wire.CodeInfeasible:
		cnt.infeasible.Add(1)
	}
}

// tierCounters is the hot-path (atomic) form of TierReport.
type tierCounters struct {
	priority                         int32
	offered, committed, onTime, shed atomic.Int64
}

type tierStats struct {
	byPri map[int32]*tierCounters
	order []int32 // descending priority
}

func newTierStats(schema *wire.HelloOK) *tierStats {
	t := &tierStats{byPri: make(map[int32]*tierCounters)}
	for _, tmpl := range schema.Templates {
		if _, ok := t.byPri[tmpl.Priority]; !ok {
			t.byPri[tmpl.Priority] = &tierCounters{priority: tmpl.Priority}
			t.order = append(t.order, tmpl.Priority)
		}
	}
	sort.Slice(t.order, func(i, j int) bool { return t.order[i] > t.order[j] })
	return t
}

func (t *tierStats) of(pri int32) *tierCounters { return t.byPri[pri] }

// finishReport computes elapsed time, latency percentiles, tier summaries
// and aggregate on-time/suppressed counts. Shared by both loop modes.
func finishReport(rep *LoadReport, cfg LoadConfig, tiers *tierStats,
	cnt *loadCounters, lats [][]time.Duration, start time.Time) {
	rep.Elapsed = time.Since(start)
	rep.Committed = cnt.committed.Load()
	rep.Attempts = cnt.attempts.Load()
	rep.Retries = cnt.retries.Load()
	rep.Failed = cnt.failed.Load()
	rep.ROCommitted = cnt.roCommitted.Load()
	rep.OnTime = cnt.onTime.Load() // read-only tallies; tier commits add below
	rep.Shed = cnt.shed.Load()
	rep.Infeasible = cnt.infeasible.Load()
	rep.RetriesSuppressed = cfg.RetryBudget.Suppressed()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if n := len(all); n > 0 {
		rep.P50 = all[n*50/100]
		rep.P90 = all[n*90/100]
		rep.P99 = all[n*99/100]
		rep.P999 = all[n*999/1000]
		if rep.P99 == 0 { // tiny runs: index n*99/100 may clamp to 0th
			rep.P99 = all[n-1]
		}
		if rep.P999 == 0 {
			rep.P999 = all[n-1]
		}
		rep.Max = all[n-1]
	}
	for _, pri := range tiers.order {
		tc := tiers.byPri[pri]
		tr := TierReport{
			Priority:  pri,
			Offered:   tc.offered.Load(),
			Committed: tc.committed.Load(),
			OnTime:    tc.onTime.Load(),
			Shed:      tc.shed.Load(),
		}
		if tr.Offered > 0 {
			tr.MissRatio = 1 - float64(tr.OnTime)/float64(tr.Offered)
		}
		rep.OnTime += tr.OnTime
		rep.Tiers = append(rep.Tiers, tr)
	}
}
