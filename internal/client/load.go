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

// LoadConfig parameterizes the load generator. RunLoad is one worker loop
// per connection (DESIGN.md §12, "One load worker"), fed by one of two job
// sources, each worker sending its transactions one of two ways over its
// own connection and retrying them itself.
//
// The sources:
//
//   - Closed loop (ArrivalRate == 0): a shared count of Txns transactions
//     that Conns workers claim from until that many have committed. Measures
//     the system's capacity — offered load adapts to completion.
//
//   - Open loop (ArrivalRate > 0): transactions arrive by a Poisson
//     process at ArrivalRate per second for Duration, regardless of how
//     fast earlier ones complete, and wait for a worker in a priority
//     queue. This is what real overload looks like — arrivals do not slow
//     down because the server is slow — and it is the only mode that can
//     push the server past saturation, which is the point: it measures
//     goodput and deadline misses under offered loads the server cannot
//     absorb.
//
// The sends: a conversation (a frame and a round trip per step, one
// transaction at a time) or, with Pipelined, the transaction whole (one TXN
// frame). A closed-loop worker sending whole keeps Window transactions in
// flight on its connection; every other worker keeps one.
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Conns is the number of concurrent workers (each owns one connection).
	// Default 8.
	Conns int
	// Txns is the closed-loop committed-transaction target. Default 1000.
	// Ignored in open-loop mode.
	Txns int
	// Seed makes the workload reproducible: the arrival process draws from
	// Seed, worker w draws templates, written values and backoff jitter
	// from Seed+w.
	Seed int64
	// OpTimeout bounds each request/reply round trip. Default 10s.
	OpTimeout time.Duration
	// MaxAttempts bounds attempts per transaction, the first included.
	// Default 16. Every retry is also paid for from the run's retry budget
	// (DESIGN.md §12): a first attempt earns a fifth of a token, a retry
	// spends one, and the bucket holds at most 10×Conns.
	MaxAttempts int
	// Pipelined sends each transaction whole, as one TXN frame, instead of
	// as a conversation with a round trip per step.
	Pipelined bool
	// Window bounds requests in flight per connection, and is how many
	// transactions a closed-loop Pipelined worker keeps in flight.
	// Default 32.
	Window int
	// ReadFrac is the fraction of transactions issued as declared
	// read-only snapshot transactions (lock-free server-side, admission
	// bypassed). Each reads 1–4 random items from the schema's item
	// space. Requires Pipelined. 0 = all updates.
	ReadFrac float64

	// ArrivalRate switches to open loop: mean arrivals per second of the
	// Poisson process. 0 selects the closed loop.
	ArrivalRate float64
	// Duration bounds the open-loop arrival window. Default 5s.
	Duration time.Duration
	// DeadlineBudget is the firm deadline attached to every transaction,
	// measured from its arrival (in the closed loop, from the moment a
	// worker claims it): the server sheds infeasible work, and a commit
	// later than this counts as a deadline miss, not goodput. 0 sends no
	// deadline (every commit is on time).
	DeadlineBudget time.Duration
	// MaxInFlight bounds open-loop arrivals waiting for a worker; past it
	// the lowest-priority waiting arrival is dropped client-side and
	// counted as Overrun (an open-loop generator must shed too, or it
	// measures its own queue — and it must shed in priority order, or it
	// reintroduces the priority inversion the server's admission queue
	// avoids). Default 4×Conns.
	MaxInFlight int

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
}

const (
	// spinUnder is the open-loop pacing threshold: the last stretch of every
	// inter-arrival gap is paced by a yield-spin instead of the sleeper,
	// whose granularity on a coarse-timer host is ~10ms, far wider than the
	// sub-millisecond gaps of a multi-thousand/s arrival process.
	spinUnder = 10 * time.Millisecond
	// A retry waits a full-jitter draw below a ceiling that starts at
	// backoffBase and doubles per attempt up to backoffCap.
	backoffBase = time.Millisecond
	backoffCap  = 100 * time.Millisecond
)

// Buckets is how many equal slices of the open-loop arrival window
// LoadReport.Buckets reports.
const Buckets = 10

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

// Bucket is one slice of the open-loop arrival window. Its arrivals say how
// well the generator paced — a healthy one emits what it scheduled with
// sub-millisecond lag, and on a coarse-timer 1-core box the buckets localize
// where pacing collapses — and its commits are the throughput-over-time
// series. Commits landing after the window (the in-flight tail) count in the
// last bucket.
type Bucket struct {
	StartS    float64 `json:"start_s"` // bucket bounds, seconds from run start
	EndS      float64 `json:"end_s"`
	Scheduled int64   `json:"scheduled"`  // arrivals the process scheduled in the bucket
	Emitted   int64   `json:"emitted"`    // arrivals actually emitted during the bucket
	MaxLagMS  float64 `json:"max_lag_ms"` // worst (emission − schedule) of the bucket
	Committed int64   `json:"committed"`
	OnTime    int64   `json:"on_time"`
}

// LoadReport aggregates one load run.
type LoadReport struct {
	Committed int64         `json:"committed"`
	Attempts  int64         `json:"attempts"` // transactions tried (each may retry internally)
	Retries   int64         `json:"retries"`  // per-attempt retries across all workers
	Failed    int64         `json:"failed"`   // transactions abandoned (attempts exhausted or fatal)
	Elapsed   time.Duration `json:"elapsed_ns"`

	// Latency percentiles over committed transactions, in every mode from
	// the moment the transaction exists to its commit: claim→commit in the
	// closed loop (the dial, a full window and the wait behind the
	// connection's earlier transactions included), arrival→commit in the
	// open loop (queueing included — that is the latency a deadline is spent
	// against).
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

	// Buckets splits the open-loop arrival window into Buckets slices:
	// pacing and commits over time. Open loop only.
	Buckets []Bucket `json:"buckets,omitempty"`
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
	onTime      atomic.Int64
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
	if cfg.ReadFrac < 0 {
		cfg.ReadFrac = 0
	}
	if cfg.ReadFrac > 1 {
		cfg.ReadFrac = 1
	}
}

// loadRun is the state one RunLoad shares among its workers: the
// configuration, the schema, the job source, the retry budget and the
// tallies.
type loadRun struct {
	cfg     LoadConfig
	schema  *wire.HelloOK
	items   []uint32 // the schema's item space: what read-only transactions read
	roPri   int32    // the rank read-only arrivals queue at
	tiers   *tierStats
	budget  *retryBudget
	cnt     loadCounters
	buckets *bucketTracker // open loop only, else nil

	// The job source. Open loop: jobs, filled by the arrival process. Closed
	// loop (jobs == nil): remaining, the transactions still to be claimed.
	jobs      *openQueue
	remaining atomic.Int64
}

// RunLoad drives the server at cfg.Addr with a seeded workload — closed
// loop by default, open loop when ArrivalRate is set — and reports
// throughput, goodput and latency. It stops early (with the partial
// report and ctx's error) if ctx is cancelled.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	probe, err := DialPipelined(cfg.Addr, cfg.OpTimeout, 1)
	if err != nil {
		return nil, err
	}
	schema := probe.Schema()
	_ = probe.Close()
	if len(schema.Templates) == 0 {
		return nil, errors.New("client: server exports no transaction types")
	}
	r := &loadRun{cfg: cfg, schema: schema, items: schemaItems(schema), tiers: newTierStats(schema),
		budget: newRetryBudget(float64(10 * cfg.Conns))}
	if cfg.ReadFrac > 0 || cfg.ReadFracAt != nil {
		if !cfg.Pipelined {
			return nil, errors.New("client: ReadFrac requires Pipelined (a read-only snapshot is a TXN frame)")
		}
		if len(r.items) == 0 {
			return nil, errors.New("client: ReadFrac set but the schema declares no items")
		}
	}
	// Read-only arrivals queue at the top priority: they bypass server-side
	// admission entirely, so holding them behind updates in the client
	// queue would manufacture a wait the server never imposes.
	for _, tmpl := range schema.Templates {
		r.roPri = max(r.roPri, tmpl.Priority)
	}

	rep := &LoadReport{}
	lats := make([][]time.Duration, cfg.Conns)
	errs := make([]error, cfg.Conns)
	start := time.Now()
	if cfg.ArrivalRate > 0 {
		r.jobs = newOpenQueue(cfg.MaxInFlight)
		r.buckets = newBucketTracker(start, cfg.Duration)
	} else {
		r.remaining.Store(int64(cfg.Txns))
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = r.worker(ctx, int64(w), &lats[w])
		}(w)
	}
	if r.jobs != nil {
		r.arrivals(ctx, rep, start)
		r.jobs.close()
	}
	wg.Wait()
	r.finishReport(rep, lats, start)
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, ctx.Err()
}

// loadJob is one transaction on its way through a worker.
type loadJob struct {
	tmpl    wire.TemplateInfo // read-only: only its Priority, the rank it queues at
	tier    *tierCounters     // nil for read-only: no template, no tier
	ro      bool              // declared read-only snapshot transaction
	items   []uint32          // read-only: the snapshot read set
	arrival time.Time         // where the latency clock and the deadline start
	seq     uint64            // open loop: arrival order, set by the queue
	budget  time.Duration     // what was left of DeadlineBudget when a worker started it
	fut     *TxnFuture        // sent whole: attempt one, in flight
	err     error             // sent whole: why attempt one never left
}

// draw makes the next transaction of the workload: a read-only snapshot
// with probability readFrac, otherwise an update of a template picked by
// the PickTemplate hook or uniformly. frac is the arrival's position in the
// open-loop window (0 in the closed loop).
func (r *loadRun) draw(rng *rand.Rand, readFrac, frac float64) loadJob {
	if readFrac > 0 && rng.Float64() < readFrac {
		return loadJob{tmpl: wire.TemplateInfo{Name: "read-only", Priority: r.roPri},
			ro: true, items: roPick(rng, r.items), arrival: time.Now()}
	}
	var tmpl wire.TemplateInfo
	if r.cfg.PickTemplate != nil {
		tmpl = r.schema.Templates[r.cfg.PickTemplate(rng, frac)]
	} else {
		tmpl = r.schema.Templates[rng.Intn(len(r.schema.Templates))]
	}
	tier := r.tiers.byPri[tmpl.Priority]
	tier.offered.Add(1)
	return loadJob{tmpl: tmpl, tier: tier, arrival: time.Now()}
}

// next is the job source. The open loop hands out the most important
// waiting arrival, blocking for one, until the arrival process has closed
// the queue and it is empty. The closed loop claims one of the remaining
// transactions — never taking the count below zero, so a claim handed back
// after the count ran out is claimed again — and draws it from the worker's
// own rng.
func (r *loadRun) next(rng *rand.Rand) (loadJob, bool) {
	if r.jobs != nil {
		return r.jobs.pop()
	}
	for n := r.remaining.Load(); n > 0; n = r.remaining.Load() {
		if r.remaining.CompareAndSwap(n, n-1) {
			return r.draw(rng, r.cfg.ReadFrac, 0), true
		}
	}
	return loadJob{}, false
}

// runner is one worker's connection and the way a transaction runs on it:
// the client's one retry loop. start does whatever of attempt one can be
// done without waiting, finish waits for its outcome and, while that is a
// retryable refusal, backs off and runs the transaction again — overlap is
// for the common case; a failed transaction is worth a stall. One rng, the
// worker's, draws its templates, written values and backoff jitter.
type runner struct {
	*loadRun
	rng  *rand.Rand
	conn *PipeConn // dialled on first use, redialled once an attempt breaks it
}

// dial returns the worker's connection, dialling one if there is none or
// the last one broke (a broken PipeConn has already closed its socket).
// A server at its connection limit refuses the dial with a retryable
// CodeOverload, which the retry loop treats like any other refused attempt.
func (r *runner) dial() (*PipeConn, error) {
	if r.conn != nil && !r.conn.Broken() {
		return r.conn, nil
	}
	c, err := DialPipelined(r.cfg.Addr, r.cfg.OpTimeout, r.cfg.Window)
	if err != nil {
		return nil, err
	}
	r.conn = c
	return c, nil
}

func (r *runner) close() {
	if r.conn != nil {
		_ = r.conn.Close()
	}
}

// start earns the budget its share of j's first attempt and, for a whole
// transaction, encodes that attempt into the connection's unflushed batch,
// so transactions started back to back leave in one write when the worker
// next blocks, and the server executes them in arrival order. A
// conversation has nothing to send ahead of its first reply.
func (r *runner) start(j *loadJob) {
	r.budget.credit()
	if !r.cfg.Pipelined {
		return
	}
	c, err := r.dial()
	if err == nil {
		j.fut, err = r.submit(c, j)
	}
	j.err = err
}

func (r *runner) submit(c *PipeConn, j *loadJob) (*TxnFuture, error) {
	if j.ro {
		return c.SubmitReadTxn(j.items)
	}
	steps := make([]wire.Message, 0, len(j.tmpl.Steps))
	for _, st := range j.tmpl.Steps { // compute steps have no wire op
		switch st.Op {
		case wire.OpRead:
			steps = append(steps, &wire.Read{Item: st.Item})
		case wire.OpWrite:
			steps = append(steps, &wire.Write{Item: st.Item, Value: r.rng.Int63n(1 << 30)})
		}
	}
	return c.SubmitTxn(j.tmpl.Name, j.budget, steps)
}

// attempt is one attempt at j, waited out: the whole transaction as one TXN
// frame, or a conversation — BEGIN, a round trip per step, COMMIT. The
// server ends the transaction on every ERR reply, and any other failure has
// broken the connection, so a failed conversation leaves nothing to abort.
func (r *runner) attempt(j *loadJob) error {
	c, err := r.dial()
	if err != nil {
		return err
	}
	if r.cfg.Pipelined {
		fut, err := r.submit(c, j)
		if err != nil {
			return err
		}
		return fut.Wait()
	}
	if _, err := c.BeginBudget(j.tmpl.Name, j.budget); err != nil {
		return err
	}
	for _, st := range j.tmpl.Steps {
		switch st.Op {
		case wire.OpRead:
			_, err = c.Read(st.Item)
		case wire.OpWrite:
			err = c.Write(st.Item, r.rng.Int63n(1<<30))
		}
		if err != nil {
			return err
		}
	}
	return c.Commit()
}

// finish settles j: it waits out attempt one (or runs it, if start sent
// nothing ahead) and carries a retryable refusal on through the retry chain
// — at most MaxAttempts attempts, each retry paid for from the run's budget
// before it is slept for, full-jitter backoff between them, and every typed
// refusal counted. A cancelled run sends no further attempt.
func (r *runner) finish(ctx context.Context, j *loadJob) error {
	err := j.err
	if j.fut != nil {
		err = j.fut.Wait()
	} else if err == nil {
		err = r.attempt(j)
	}
	for a := 1; err != nil; a++ {
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			return err
		}
		r.refused(j, remote.Code)
		if !remote.Code.Retryable() {
			return err
		}
		if a >= r.cfg.MaxAttempts {
			return fmt.Errorf("client: %s: attempts exhausted: %w", j.tmpl.Name, err)
		}
		if !r.budget.take() {
			return fmt.Errorf("client: %s: retry budget exhausted: %w", j.tmpl.Name, err)
		}
		if r.backoff(ctx, a) != nil {
			return err
		}
		r.cnt.retries.Add(1)
		err = r.attempt(j)
	}
	return nil
}

// backoff sleeps before retry a, a full-jitter draw below a ceiling that
// doubles per attempt, and returns early with ctx's error if the run ends.
// The doubling stops at the cap: shifted on unbounded, the ceiling would
// wrap negative past the 44th retry.
func (r *runner) backoff(ctx context.Context, a int) error {
	ceil := min(backoffBase<<min(a-1, 7), backoffCap)
	t := time.NewTimer(time.Duration(r.rng.Int63n(int64(ceil) + 1)))
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
	return ctx.Err()
}

// refused counts a typed refusal of one of j's attempts, retried or not.
func (r *runner) refused(j *loadJob, code wire.ErrorCode) {
	switch code {
	case wire.CodeShed:
		r.cnt.shed.Add(1)
		if j.tier != nil {
			j.tier.shed.Add(1)
		}
	case wire.CodeInfeasible:
		r.cnt.infeasible.Add(1)
	}
}

// worker is the load loop, one per connection, the same in every mode: take
// a job from the source, start it, and once depth of them are in flight —
// or the source has run out — settle the oldest. Depth is what the
// connection can hold (one conversation, or its window of whole
// transactions) in the closed loop, where jobs are free and the
// point is to keep the server busy; it is one in the open loop, where a job
// taken early is an arrival that left the priority queue before it had to,
// ahead of a more important one about to arrive.
//
// An open-loop worker never returns an error: under nemesis faults broken
// connections and exhausted attempts are outcomes to count, not reasons to
// stop offering load. A closed-loop worker hands the claim of a transaction
// it abandoned back to the source, stops quietly when the server drains,
// and fails the run on anything else.
func (r *loadRun) worker(ctx context.Context, id int64, lats *[]time.Duration) error {
	run := &runner{loadRun: r, rng: rand.New(rand.NewSource(r.cfg.Seed + id))}
	defer run.close()
	depth := 1
	if r.cfg.Pipelined && r.jobs == nil {
		depth = r.cfg.Window
	}
	queue := make([]loadJob, 0, depth)
	for ctx.Err() == nil {
		if j, ok := r.next(run.rng); ok {
			if r.cfg.DeadlineBudget > 0 {
				// The deadline is anchored at arrival; hand the server only
				// what remains. A job whose budget evaporated waiting for a
				// worker is dropped without a round trip.
				if j.budget = r.cfg.DeadlineBudget - time.Since(j.arrival); j.budget <= 0 {
					r.cnt.failed.Add(1)
					continue
				}
			}
			queue = append(queue, j)
			run.start(&queue[len(queue)-1])
			if len(queue) < depth {
				continue
			}
		} else if len(queue) == 0 {
			return nil
		}
		j := &queue[0]
		queue = queue[1:]
		err := run.finish(ctx, j)
		r.cnt.attempts.Add(1)
		if err == nil {
			r.commit(j, lats)
			continue
		}
		r.cnt.failed.Add(1)
		var remote *wire.RemoteError
		switch {
		case ctx.Err() != nil:
			return nil
		case r.jobs != nil:
			// Open loop: counted; the arrival is gone either way.
		case !errors.As(err, &remote):
			return fmt.Errorf("client: worker %d: %w", id, err) // transport or desync
		case remote.Code == wire.CodeDraining || remote.Code == wire.CodeCancelled:
			return nil // orderly shutdown, not a failure worth killing the run over
		case remote.Code.Retryable():
			// Abandoned (attempts or retry budget exhausted): return the claim
			// so the run still reaches its committed-transaction target.
			r.remaining.Add(1)
		default:
			return fmt.Errorf("client: worker %d: %w", id, err)
		}
	}
	return nil
}

// commit accounts one committed transaction.
func (r *loadRun) commit(j *loadJob, lats *[]time.Duration) {
	lat := time.Since(j.arrival)
	onTime := r.cfg.DeadlineBudget <= 0 || lat <= r.cfg.DeadlineBudget
	r.cnt.committed.Add(1)
	if onTime {
		r.cnt.onTime.Add(1)
	}
	r.buckets.commit(onTime)
	if j.ro {
		r.cnt.roCommitted.Add(1)
	} else {
		j.tier.committed.Add(1)
		if onTime {
			j.tier.onTime.Add(1)
		}
	}
	*lats = append(*lats, lat)
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
	items  []loadJob // sorted: priority desc, seq asc
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
func (q *openQueue) push(j loadJob) bool {
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

func (q *openQueue) insert(j loadJob) {
	i := sort.Search(len(q.items), func(i int) bool {
		it := q.items[i]
		return it.tmpl.Priority < j.tmpl.Priority ||
			(it.tmpl.Priority == j.tmpl.Priority && it.seq > j.seq)
	})
	q.items = append(q.items, loadJob{})
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = j
}

// pop blocks for the highest-priority waiting job; ok is false once the
// queue is closed and empty.
func (q *openQueue) pop() (loadJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return loadJob{}, false
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

// bucketTracker books the open loop's arrivals and commits into Buckets
// equal slices of the arrival window. Only the arrival goroutine books
// arrivals, so those counters are plain; workers book commits concurrently,
// so those are atomics.
type bucketTracker struct {
	start              time.Time
	width              time.Duration
	scheduled, emitted [Buckets]int64
	maxLag             [Buckets]time.Duration
	committed, onTime  [Buckets]atomic.Int64
}

// newBucketTracker slices window; a slice is at least a nanosecond wide, so
// even a window of a few nanoseconds divides.
func newBucketTracker(start time.Time, window time.Duration) *bucketTracker {
	return &bucketTracker{start: start, width: max(window/Buckets, 1)}
}

// slice is the bucket an offset from the run start falls in, the ends
// clamped into the first and last.
func (b *bucketTracker) slice(d time.Duration) int {
	return min(max(int(d/b.width), 0), Buckets-1)
}

// arrival books one emitted arrival: sched is its scheduled offset from the
// run start, actual the offset it was actually emitted at.
func (b *bucketTracker) arrival(sched, actual time.Duration) {
	i := b.slice(sched)
	b.scheduled[i]++
	b.emitted[b.slice(actual)]++
	b.maxLag[i] = max(b.maxLag[i], actual-sched)
}

// commit books one commit at the current time; a nil tracker (the closed
// loop) books nothing.
func (b *bucketTracker) commit(onTime bool) {
	if b == nil {
		return
	}
	i := b.slice(time.Since(b.start))
	b.committed[i].Add(1)
	if onTime {
		b.onTime[i].Add(1)
	}
}

func (b *bucketTracker) report() []Bucket {
	out := make([]Bucket, Buckets)
	for i := range out {
		out[i] = Bucket{
			StartS:    (time.Duration(i) * b.width).Seconds(),
			EndS:      (time.Duration(i+1) * b.width).Seconds(),
			Scheduled: b.scheduled[i],
			Emitted:   b.emitted[i],
			MaxLagMS:  float64(b.maxLag[i]) / float64(time.Millisecond),
			Committed: b.committed[i].Load(),
			OnTime:    b.onTime[i].Load(),
		}
	}
	return out
}

// arrivals is the open loop's arrival process: exponential inter-arrival
// times at ArrivalRate (or the explicit ArrivalTimes schedule), each
// arrival drawn from one rng, so the offered workload is a deterministic
// function of the seed regardless of how the server behaves. Arrival times
// are absolute (each scheduled from the previous scheduled time, not from
// "now"): when the scheduler falls behind it emits the overdue arrivals
// immediately instead of silently stretching every gap by its own overhead,
// so the offered rate actually is ArrivalRate. An arrival finding
// MaxInFlight jobs waiting displaces the least important of them or is
// dropped: open-loop latency must be measured against the server's
// queueing, not a client-side backlog of stale arrivals.
//
// Pacing is hybrid sleep-then-spin: the sleeper handles the bulk of a long
// gap, but the last spinUnder of every gap is paced by a yield loop. On a
// host whose timer granularity is ~10ms a pure sleeper cannot hit the
// sub-millisecond gaps of a multi-thousand/s Poisson process — it
// oversleeps, then dumps the overdue arrivals in bursts. The spin costs one
// core's worth of yields but makes the achieved rate track the offered rate
// (both are reported, whole-run and per bucket, so a run shows when and
// where it does not).
func (r *loadRun) arrivals(ctx context.Context, rep *LoadReport, start time.Time) {
	cfg := &r.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	deadline := start.Add(cfg.Duration)
	next := start
	timer := time.NewTimer(0)
	defer timer.Stop()
	schedIdx := 0
arrivals:
	for {
		if cfg.ArrivalTimes != nil {
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
			if wait > spinUnder {
				timer.Reset(wait - spinUnder)
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
		r.buckets.arrival(next.Sub(start), time.Since(start))
		readFrac := cfg.ReadFrac
		if cfg.ReadFracAt != nil {
			readFrac = cfg.ReadFracAt(frac)
		}
		rep.Offered++
		if !r.jobs.push(r.draw(rng, readFrac, frac)) {
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

// finishReport computes elapsed time, latency percentiles, tier summaries
// and the aggregate counts once the workers have joined.
func (r *loadRun) finishReport(rep *LoadReport, lats [][]time.Duration, start time.Time) {
	rep.Elapsed = time.Since(start)
	rep.Committed = r.cnt.committed.Load()
	rep.Attempts = r.cnt.attempts.Load()
	rep.Retries = r.cnt.retries.Load()
	rep.Failed = r.cnt.failed.Load()
	rep.ROCommitted = r.cnt.roCommitted.Load()
	rep.OnTime = r.cnt.onTime.Load()
	rep.Shed = r.cnt.shed.Load()
	rep.Infeasible = r.cnt.infeasible.Load()
	rep.RetriesSuppressed = r.budget.suppressed()
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
		rep.Max = all[n-1]
	}
	for _, pri := range r.tiers.order {
		tc := r.tiers.byPri[pri]
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
		rep.Tiers = append(rep.Tiers, tr)
	}
	if r.buckets != nil {
		rep.Buckets = r.buckets.report()
	}
}
