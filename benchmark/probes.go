package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/lock"
	"pcpda/internal/rt"
	"pcpda/internal/rtm"
	"pcpda/internal/scenario"
	"pcpda/internal/sim"
	"pcpda/internal/txn"
	"pcpda/internal/wire"
	"pcpda/internal/workload"
)

// The probes measure one layer at a time, through its public functions,
// on the inputs the workload feeds it. They run only in the traced run.

// set records a per-layer value; a nil map (the end-to-end run) drops it.
func (lm layerMetrics) set(name string, v float64) {
	if lm != nil {
		lm[name] = v
	}
}

// auditWindow audits the manager's current history window, which holds the
// last segment: CheckInvariants must pass. In the traced run it also
// reports the window's size and what the two audits cost per transaction.
func auditWindow(m *rtm.Manager, lm layerMetrics) error {
	h := m.History() // no transaction is live: the segments have returned
	commits := 0
	for i := range h.Ops {
		if h.Ops[i].Kind == history.CommitOp {
			commits++
		}
	}
	if lm != nil && commits > 0 {
		perTxn := float64(len(h.Ops)) / float64(commits)
		lm.set("history.ops_per_txn", perTxn)
		lm.set("history.bytes_per_txn", perTxn*float64(unsafe.Sizeof(history.Op{})))
		t0 := time.Now()
		rep := h.Check()
		lm.set("history.check_us_per_txn", time.Since(t0).Seconds()*1e6/float64(commits))
		if !rep.Serializable || !rep.CommitOrderOK {
			return fmt.Errorf("final history window: %d violations, first: %v", len(rep.Violations), rep.Violations[0])
		}
	}
	t0 := time.Now()
	if err := m.CheckInvariants(); err != nil {
		return fmt.Errorf("final history window: %w", err)
	}
	if commits > 0 {
		lm.set("rtm.audit_us_per_txn", time.Since(t0).Seconds()*1e6/float64(commits))
	}
	return nil
}

// commonProbes time the work every workload's set-up is made of.
func commonProbes(lm layerMetrics, tr *traced) error {
	sets := make([]*txn.Set, sweepSets)
	t0 := time.Now()
	for i := range sets {
		set, err := workload.Generate(sweepConfig(i))
		if err != nil {
			return err
		}
		sets[i] = set
	}
	lm.set("workload.generate_us_per_set", time.Since(t0).Seconds()*1e6/sweepSets)
	t0 = time.Now()
	for _, set := range sets {
		txn.ComputeCeilings(set)
	}
	lm.set("txn.compute_ceilings_us", time.Since(t0).Seconds()*1e6/sweepSets)

	spec, err := scenario.Load(filepath.Join(tr.root, "scenarios", "smoke-hotshift.json"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := scenario.RunSim(spec, scenario.SimOptions{}); err != nil {
		return err
	}
	lm.set("scenario.smoke_sim_s", time.Since(t0).Seconds())
	return nil
}

// probeTxns is how many transactions the serial manager replay runs.
const probeTxns = 50_000

// managerProbe replays a transaction sequence in-process on one goroutine
// over a fresh manager of set: first bare, for the whole-transaction cost,
// then with a span per call. Span medians are reported net of the
// calibrated span cost.
func managerProbe(set *txn.Set, pick func(i int) *txn.Template, seed int64, spanCost int64, lm layerMetrics) error {
	m, err := rtm.New(set)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for i := 0; i < probeTxns; i++ {
		if err := mgrTxn(ctx, m, pick(i), rng, nil, 0, -1); err != nil {
			return err
		}
	}
	lm.set("rtm.txn_us_serial", time.Since(t0).Seconds()*1e6/probeTxns)
	m.ResetHistory()

	tr := newTracer(time.Now(), 8*probeTxns)
	for i := 0; i < probeTxns; i++ {
		root := tr.begin(spTxn, uint32(i), -1)
		if err := mgrTxn(ctx, m, pick(i), rng, tr, uint32(i), root); err != nil {
			return err
		}
		tr.end(root)
	}
	m.ResetHistory()
	ks := kindStats(tr.spans)
	for kind, name := range map[spanKind]string{
		spBegin: "rtm.begin_ns", spRead: "rtm.read_ns", spWrite: "rtm.write_ns", spCommit: "rtm.commit_ns",
	} {
		lm.set(name, float64(max(ks[kind].p50-spanCost, 0)))
	}

	// Batched admission: one instance of every template under a single
	// manager-lock acquisition.
	names := make([]string, len(set.Templates))
	for i, t := range set.Templates {
		names[i] = t.Name
	}
	const batches = 4000
	var inBatch time.Duration
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		txs, err := m.BeginBatch(ctx, names)
		inBatch += time.Since(t0)
		if err != nil {
			return err
		}
		for _, tx := range txs {
			tx.Abort()
		}
	}
	lm.set("rtm.beginbatch_ns_per_txn", float64(inBatch.Nanoseconds())/float64(batches*len(names)))
	m.ResetHistory()

	// Read-only snapshot transaction: begin, two reads, commit.
	items := set.Catalog.Len()
	const roTxns = 200_000
	t0 = time.Now()
	for i := 0; i < roTxns; i++ {
		tx, err := m.BeginReadOnly(ctx)
		if err != nil {
			return err
		}
		for k := 0; k < cycleReadSet; k++ {
			if _, err := tx.Read(ctx, rt.Item(rng.Intn(items))); err != nil {
				return err
			}
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
	}
	lm.set("rtm.ro_txn_ns", float64(time.Since(t0).Nanoseconds())/roTxns)
	return nil
}

// managerCounters turns the manager's counter deltas over the traced
// segments into per-transaction rates.
func managerCounters(lm layerMetrics, tr *traced) {
	b, a := tr.before.mgr, tr.after.mgr
	txns := float64(tr.tot.committed)
	lm.set("rtm.lock_waits_per_ktxn", 1e3*float64(a.LockWaits-b.LockWaits)/txns)
	lm.set("rtm.commit_waits_per_ktxn", 1e3*float64(a.CommitWaits-b.CommitWaits)/txns)
	lm.set("rtm.cycle_aborts_per_ktxn", 1e3*float64(a.CycleAborts-b.CycleAborts)/txns)
	lm.set("rtm.clock_ticks_per_txn", float64(a.Clock-b.Clock)/txns)
	lm.set("lock.ops_per_txn", float64(a.LockTableOps-b.LockTableOps)/txns)
	lm.set("db.ro_evictions_per_ktxn", 1e3*float64(a.ROEvictions-b.ROEvictions)/txns)
}

// storeProbes drive lock.Table and db.Store directly over the set's items.
func storeProbes(set *txn.Set, lm layerMetrics) error {
	items := set.Catalog.Len()
	const n = 500_000
	tbl := lock.NewTable()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		job, x := rt.JobID(i&7), rt.Item(i%items)
		tbl.Acquire(job, x, rt.Read)
		tbl.Release(job, x, rt.Read)
	}
	lm.set("lock.acquire_release_ns", float64(time.Since(t0).Nanoseconds())/n)
	if left := tbl.LockCount(); left != 0 {
		return fmt.Errorf("lock probe left %d locks", left)
	}

	store := db.NewStore()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		store.InstallVersioned(db.RunID(i), rt.Item(i%items), db.Value(i), int64(i+1))
	}
	lm.set("db.install_versioned_ns", float64(time.Since(t0).Nanoseconds())/n)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, _, err := store.ReadAt(rt.Item(i%items), n); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
	}
	lm.set("db.read_at_ns", float64(time.Since(t0).Nanoseconds())/n)
	chain := 0
	for x := 0; x < items; x++ {
		chain += store.ChainLen(rt.Item(x))
	}
	lm.set("db.chain_len_mean", float64(chain)/float64(items))
	return nil
}

// --- service workloads --------------------------------------------------------

func (s *svc) probes(lm layerMetrics, tr *traced) error {
	txns := float64(tr.tot.committed)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	lm.set("client.submit_us_p50", us(tr.kinds[spSubmit].p50))
	lm.set("client.await_us_p50", us(tr.kinds[spAwait].p50))
	lm.set("client.ro_rtt_p50_us", us(tr.kinds[spRO].p50))
	lm.set("client.upd_rtt_p50_us", us(tr.kinds[spUpd].p50))
	lm.set("client.p99_us", us(percentile(tr.lat, 0.99)))
	lm.set("client.p999_us", us(percentile(tr.lat, 0.999)))
	lm.set("client.retries_per_ktxn", 1e3*float64(tr.tot.retries)/txns)

	b, a := tr.before.srv, tr.after.srv
	if flushes := a.ResponseFlushes - b.ResponseFlushes; flushes > 0 {
		lm.set("server.flush_batch_mean", float64(a.ResponsesFlushed-b.ResponsesFlushed)/float64(flushes))
		lm.set("server.flushes_per_txn", float64(flushes)/txns)
	}
	lm.set("server.stolen_per_ktxn", 1e3*float64(a.StolenAdmissions-b.StolenAdmissions)/txns)
	lm.set("server.shed_per_ktxn", 1e3*float64(a.Shed-b.Shed)/txns)
	lm.set("server.rejected_per_ktxn", 1e3*float64(a.RejectedOverload-b.RejectedOverload+a.RejectedInfeasible-b.RejectedInfeasible)/txns)
	lm.set("wire.bytes_per_txn", float64(a.BytesIn-b.BytesIn+a.BytesOut-b.BytesOut)/txns)
	var ewma float64
	shards := s.srv.ShardStats()
	for _, sh := range shards {
		ewma += sh.EWMAWaitMs * 1e3
	}
	lm.set("server.admit_wait_ewma_us", ewma/float64(len(shards)))
	managerCounters(lm, tr)

	pingCPU, err := s.pingProbe(lm)
	if err != nil {
		return err
	}
	codecUs, err := s.wireProbe(lm)
	if err != nil {
		return err
	}
	tmpls := s.set.Templates
	pickRng := rand.New(rand.NewSource(s.seed))
	pick := func(int) *txn.Template { return tmpls[pickRng.Intn(len(tmpls))] }
	if err := managerProbe(s.set, pick, s.seed, tr.spanCost, lm); err != nil {
		return err
	}
	if err := storeProbes(s.set, lm); err != nil {
		return err
	}
	if s.mode == svcSaturate {
		// The ledger: each rung as CPU µs per transaction over the full
		// service's. What the three rungs do not explain is stated, not
		// spread over them.
		codec := codecUs / tr.cpuPerTx
		transport := pingCPU / tr.cpuPerTx
		manager := lm["rtm.txn_us_serial"] / tr.cpuPerTx
		lm.set("ledger.codec_share", codec)
		lm.set("ledger.transport_share", transport)
		lm.set("ledger.manager_share", manager)
		lm.set("ledger.unattributed_share", 1-codec-transport-manager)
	}
	return nil
}

// pingProbe round-trips tagged PINGs over the live sessions: socket and
// session only, no admission, no manager. It reports the sequential
// round-trip median and returns the process CPU one echo costs (µs) with
// every connection pinging at once — the ledger's transport rung.
func (s *svc) pingProbe(lm layerMetrics) (float64, error) {
	const pings = 4000
	c := s.conns[0]
	rtts := make([]int64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if err := c.pc.Ping(uint64(i)); err != nil {
			return 0, fmt.Errorf("ping probe: %w", err)
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	slices.Sort(rtts)
	lm.set("server.ping_rtt_p50_us", float64(percentile(rtts, 0.5))/1e3)

	errs := make([]error, len(s.conns))
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	for i, c := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < pings && errs[i] == nil; k++ {
				errs[i] = c.pc.Ping(uint64(k))
			}
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("ping probe: %w", err)
		}
	}
	return float64(cpu.Microseconds()) / float64(pings*len(s.conns)), nil
}

// wireProbe replays the workload's frame sequence — every request frame a
// connection sends and every reply it gets back — through the codec alone,
// and returns the codec's CPU per transaction (µs).
func (s *svc) wireProbe(lm layerMetrics) (float64, error) {
	const txns = 20_000
	c := s.conns[0] // idle: the segments are over
	rng := rand.New(rand.NewSource(s.seed))
	var frames []wire.Message
	for i := 0; i < txns; i++ {
		if s.mode == svcCycle {
			frames = append(frames, &wire.Begin{ReadOnly: true}, &wire.BeginOK{ID: uint64(i)})
			for k := 0; k < cycleReadSet; k++ {
				frames = append(frames, &wire.Read{Item: c.items[rng.Intn(len(c.items))]}, &wire.ReadOK{Value: rng.Int63n(1 << 30)})
			}
			frames = append(frames, &wire.Commit{}, &wire.CommitOK{})
		}
		b := &c.bursts[rng.Intn(len(c.bursts))]
		frames = append(frames, &wire.Begin{Name: b.name}, &wire.BeginOK{ID: uint64(i)})
		for _, m := range b.steps {
			switch m := m.(type) {
			case *wire.Read:
				frames = append(frames, m, &wire.ReadOK{Value: rng.Int63n(1 << 30)})
			case *wire.Write:
				frames = append(frames, &wire.Write{Item: m.Item, Value: rng.Int63n(1 << 30)}, &wire.WriteOK{})
			}
		}
		frames = append(frames, &wire.Commit{}, &wire.CommitOK{})
	}
	perTxn := float64(len(frames)) / txns
	if s.mode == svcCycle {
		perTxn /= 2 // a cycle is two transactions
	}
	lm.set("wire.frames_per_txn", perTxn)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var buf []byte
	var err error
	t0 := time.Now()
	for i, m := range frames {
		if buf, err = wire.AppendTagged(buf, wire.Version, uint32(i), m); err != nil {
			return 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	enc := time.Since(t0)
	t0 = time.Now()
	decoded := 0
	for rest := buf; len(rest) > 0; decoded++ {
		if _, _, _, rest, err = wire.DecodeAny(rest); err != nil {
			return 0, fmt.Errorf("wire probe: %w", err)
		}
	}
	dec := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if decoded != len(frames) {
		return 0, fmt.Errorf("wire probe: decoded %d of %d frames", decoded, len(frames))
	}
	n := float64(len(frames))
	lm.set("wire.encode_ns_per_frame", float64(enc.Nanoseconds())/n)
	lm.set("wire.decode_ns_per_frame", float64(dec.Nanoseconds())/n)
	lm.set("wire.allocs_per_frame", float64(m1.Mallocs-m0.Mallocs)/n)
	return (enc + dec).Seconds() * 1e6 / n * perTxn, nil
}

// --- mgr-contended --------------------------------------------------------------

func (b *mgrBench) probes(lm layerMetrics, tr *traced) error {
	managerCounters(lm, tr)
	lm.set("rtm.p99_us", float64(percentile(tr.lat, 0.99))/1e3)
	tmpls := b.set.Templates
	pick := func(i int) *txn.Template { return tmpls[i%len(tmpls)] }
	if err := managerProbe(b.set, pick, 1, tr.spanCost, lm); err != nil {
		return err
	}
	return storeProbes(b.set, lm)
}

// --- sim-sweep --------------------------------------------------------------------

func (s *sweep) probes(lm layerMetrics, _ *traced) error {
	// One protocol at a time, one goroutine: simulated ticks per second.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var ticks int64
	var indexed time.Duration
	for _, p := range s.protocols {
		var pticks int64
		t0 := time.Now()
		for _, set := range s.sets {
			res, err := sim.Run(set, p, sweepOpts)
			if err != nil {
				return err
			}
			pticks += int64(res.Horizon)
		}
		d := time.Since(t0)
		lm.set("sim.ticks_per_s."+p, float64(pticks)/d.Seconds())
		ticks += pticks
		if p == "pcpda" {
			indexed = d
		}
	}
	runtime.ReadMemStats(&m1)
	lm.set("sim.allocs_per_ktick", 1e3*float64(m1.Mallocs-m0.Mallocs)/float64(ticks))

	// The ceiling index against the lock-table scan it replaces.
	scan := sweepOpts
	scan.DisableCeilingIndex = true
	t0 := time.Now()
	for _, set := range s.sets {
		if _, err := sim.Run(set, "pcpda", scan); err != nil {
			return err
		}
	}
	lm.set("sim.index_speedup", time.Since(t0).Seconds()/indexed.Seconds())

	// The per-set preparation RunBatch does once and a lone sim.Run does
	// for every cell: validation and the ceiling derivation.
	const reps = 50
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, set := range s.sets {
			if err := set.Validate(); err != nil {
				return err
			}
			txn.ComputeCeilings(set)
		}
	}
	lm.set("sim.batch_setup_us_per_cell", time.Since(t0).Seconds()*1e6/float64(reps*len(s.sets)))

	lm.set("sim.restarts_per_kjob", 1e3*float64(s.first.restarts)/float64(s.first.jobs))
	lm.set("sim.blocked_ticks_per_kjob", 1e3*float64(s.first.blocked)/float64(s.first.jobs))
	return nil
}
