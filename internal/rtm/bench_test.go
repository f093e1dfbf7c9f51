package rtm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/db"
	"pcpda/internal/history"
	"pcpda/internal/rt"
	"pcpda/internal/txn"
)

// Concurrent throughput benchmarks for the live manager. One benchmark op is
// one committed transaction (Begin, declared reads/writes, Commit), driven by
// a fixed number of worker goroutines so the measured parallelism does not
// depend on GOMAXPROCS; combine with -cpu sweeps to vary scheduler pressure.
//
//	go test -run '^$' -bench BenchmarkManagerParallel -benchmem -cpu 1,2,4,8 ./internal/rtm
//
// Three workloads bracket the contention spectrum:
//
//   - low: every worker's template touches only its own private items — no
//     lock conflicts, no ceiling interactions; measures the raw per-op cost
//     of the manager hot path.
//   - med: private writes plus reads of a small shared pool — ceilings are
//     raised and consulted constantly but blocking stays rare.
//   - high: all templates read AND write a four-item shared pool — LC1
//     conflicts, ceiling blocks and commit waits dominate; measures the
//     parking/wakeup machinery under a thundering herd.

// benchLowSet returns n templates over disjoint items.
func benchLowSet(n int) *txn.Set {
	s := txn.NewSet("bench-low")
	for i := 0; i < n; i++ {
		r0 := s.Catalog.Intern(fmt.Sprintf("r%d.0", i))
		r1 := s.Catalog.Intern(fmt.Sprintf("r%d.1", i))
		w0 := s.Catalog.Intern(fmt.Sprintf("w%d.0", i))
		w1 := s.Catalog.Intern(fmt.Sprintf("w%d.1", i))
		s.Add(&txn.Template{
			Name:  fmt.Sprintf("T%d", i),
			Steps: []txn.Step{txn.Read(r0), txn.Read(r1), txn.Write(w0), txn.Write(w1)},
		})
	}
	s.AssignByIndex()
	return s
}

// benchMedSet returns n templates with private writes and a shared read pool.
func benchMedSet(n int) *txn.Set {
	s := txn.NewSet("bench-med")
	shared := make([]rt.Item, 4)
	for i := range shared {
		shared[i] = s.Catalog.Intern(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < n; i++ {
		w0 := s.Catalog.Intern(fmt.Sprintf("w%d.0", i))
		w1 := s.Catalog.Intern(fmt.Sprintf("w%d.1", i))
		s.Add(&txn.Template{
			Name: fmt.Sprintf("T%d", i),
			Steps: []txn.Step{
				txn.Read(shared[i%len(shared)]),
				txn.Read(shared[(i+1)%len(shared)]),
				txn.Write(w0), txn.Write(w1),
			},
		})
	}
	s.AssignByIndex()
	return s
}

// benchHighSet returns n templates that all read and write a 4-item pool.
func benchHighSet(n int) *txn.Set {
	s := txn.NewSet("bench-high")
	shared := make([]rt.Item, 4)
	for i := range shared {
		shared[i] = s.Catalog.Intern(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < n; i++ {
		s.Add(&txn.Template{
			Name: fmt.Sprintf("T%d", i),
			Steps: []txn.Step{
				txn.Read(shared[i%len(shared)]),
				txn.Write(shared[(i+2)%len(shared)]),
			},
		})
	}
	s.AssignByIndex()
	return s
}

// benchTxnOnce drives one transaction over tmpl's declared sets, reporting
// whether it committed (false: sacrificed, caller retries).
func benchTxnOnce(ctx context.Context, m *Manager, tmpl *txn.Template) (bool, error) {
	tx, err := m.Begin(ctx, tmpl.Name)
	if err != nil {
		if errors.Is(err, ErrAborted) {
			return false, nil
		}
		return false, err
	}
	for _, st := range tmpl.Steps {
		switch st.Kind {
		case txn.ReadStep:
			_, err = tx.Read(ctx, st.Item)
		case txn.WriteStep:
			err = tx.Write(ctx, st.Item, db.SyntheticValue(tx.run(), st.Item))
		}
		if err != nil {
			if errors.Is(err, ErrAborted) {
				return false, nil
			}
			tx.Abort()
			return false, err
		}
	}
	if err := tx.Commit(ctx); err != nil {
		if errors.Is(err, ErrAborted) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// benchManager runs b.N committed transactions through m using `workers`
// goroutines, each bound to its own template (Begin is non-reentrant per
// template, so sharing one would measure slot contention, not the protocol).
func benchManager(b *testing.B, set *txn.Set, workers int) {
	b.Helper()
	m, err := New(set)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		tmpl := set.Templates[w%len(set.Templates)]
		wg.Add(1)
		go func(tmpl *txn.Template) {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				for {
					ok, err := benchTxnOnce(ctx, m, tmpl)
					if err != nil {
						b.Error(err)
						return
					}
					if ok {
						break
					}
				}
			}
		}(tmpl)
	}
	wg.Wait()
	b.StopTimer()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "txn/s")
	}
}

func BenchmarkManagerParallel(b *testing.B) {
	const workers = 8
	b.Run("low", func(b *testing.B) { benchManager(b, benchLowSet(workers), workers) })
	b.Run("med", func(b *testing.B) { benchManager(b, benchMedSet(workers), workers) })
	b.Run("high", func(b *testing.B) { benchManager(b, benchHighSet(workers), workers) })
	b.Run("high2", func(b *testing.B) { benchManager(b, benchHighSet(2), 2) })
}

// BenchmarkManagerSerial is the single-worker floor: no parking, no
// contention — isolates the per-operation bookkeeping cost.
func BenchmarkManagerSerial(b *testing.B) {
	benchManager(b, benchLowSet(1), 1)
}

// BenchmarkReadAllSlotsLive prices a granted Read at its worst: every
// template has a live instance holding a read lock that raises a ceiling,
// and the measured transaction — highest priority, admitted last — re-reads
// its item. Each Read is one lock.Table.Ceiling walk over every other live
// holder's record (7 and 63 of them); nothing blocks, nothing allocates. No
// shipped set has more than 8 templates, and live holders cannot outnumber
// templates; 64 is the regime DESIGN.md §8's rejected count index was for.
func BenchmarkReadAllSlotsLive(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("templates=%d", n), func(b *testing.B) {
			_, last, item := allSlotsLive(b, n)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := last.Read(ctx, item); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allSlotsLive builds an n-template set (Ti reads and writes its own item,
// T0 the highest priority) and leaves every slot live holding its read lock,
// lowest priority first. It returns T0's handle and item: a re-read there is
// granted under a ceiling the other n-1 raised, T* being T1.
func allSlotsLive(tb testing.TB, n int) (*Manager, *Txn, rt.Item) {
	tb.Helper()
	s := txn.NewSet("all-live")
	items := make([]rt.Item, n)
	for i := range items {
		items[i] = s.Catalog.Intern(fmt.Sprintf("a%d", i))
		s.Add(&txn.Template{
			Name:  fmt.Sprintf("T%d", i),
			Steps: []txn.Step{txn.Read(items[i]), txn.Write(items[i])},
		})
	}
	s.AssignByIndex()
	m, err := New(s)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	var last *Txn
	for i := n - 1; i >= 0; i-- {
		tx, err := m.Begin(ctx, s.Templates[i].Name)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := tx.Read(ctx, items[i]); err != nil {
			tb.Fatal(err)
		}
		last = tx
	}
	return m, last, items[0]
}

// BenchmarkHistoryCheckFullWindow prices what CheckInvariants runs off the
// mutex: History.Check on a full ring of 65 536 operations from the contended
// set, every map in it keyed by a run id. The window is filled by one
// goroutine so that it is the same operations on every run; burst is how many
// instances of a template commit back to back, which is what the check's cost
// follows — every re-read of an unchanged version is one more edge out of the
// run that wrote it — and what eight workers racing leave to the scheduler.
func BenchmarkHistoryCheckFullWindow(b *testing.B) {
	for _, burst := range []int{1, 64} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			set := contendedSet()
			m, err := New(set)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			for m.Stats().HistoryEvicted == 0 {
				for _, tmpl := range set.Templates {
					for i := 0; i < burst; i++ {
						if err := commitOne(ctx, m, tmpl); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			h := m.History()
			if len(h.Ops) != history.RingCap {
				b.Fatalf("window of %d operations, want %d", len(h.Ops), history.RingCap)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := h.Check(); !rep.Serializable || len(rep.Violations) > 0 {
					b.Fatal(rep.Violations)
				}
			}
		})
	}
}
