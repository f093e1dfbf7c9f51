package lock

import (
	"testing"

	"pcpda/internal/rt"
)

// Microbenchmarks of the lock-table paths the live manager hits on every
// operation. Holder sets are read through the Each* enumerators, which copy
// nothing; ReadHeldBy is the one query that returns a copy.

// benchTable returns a table with `items` items, each read-locked by
// `readers` jobs and write-locked by one job.
func benchTable(items, readers int) *Table {
	tb := NewTable()
	for x := 0; x < items; x++ {
		for o := 0; o < readers; o++ {
			tb.Acquire(rt.JobID(o), rt.Item(x), rt.Read)
		}
		tb.Acquire(rt.JobID(readers), rt.Item(x), rt.Write)
	}
	return tb
}

func BenchmarkLockAcquireRelease(b *testing.B) {
	tb := NewTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := rt.JobID(i % 8)
		for x := rt.Item(0); x < 4; x++ {
			tb.Acquire(o, x, rt.Read)
		}
		tb.ReleaseAll(o)
	}
}

func BenchmarkLockEachReader(b *testing.B) {
	tb := benchTable(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		tb.EachReader(rt.Item(i%8), func(rt.JobID) bool { n++; return true })
	}
	sinkInt = n
}

func BenchmarkLockReadHeldByCopy(b *testing.B) {
	tb := benchTable(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += len(tb.ReadHeldBy(rt.JobID(i % 4)))
	}
	sinkInt = n
}

func BenchmarkLockNoRlockByOthers(b *testing.B) {
	tb := benchTable(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		if tb.NoRlockByOthers(rt.Item(i%8), rt.JobID(0)) {
			n++
		}
	}
	sinkInt = n
}

func BenchmarkLockEachReadLock(b *testing.B) {
	tb := benchTable(8, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		tb.EachReadLock(func(rt.Item, rt.JobID) { n++ })
	}
	sinkInt = n
}

var sinkInt int
