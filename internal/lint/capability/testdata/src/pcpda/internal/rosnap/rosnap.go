//pcpda:lockfree

// Stub of a lock-free snapshot-path file: the marker above bans sync
// locks and every lock-table reference from the whole file.
package rosnap

import (
	"sync"
	"sync/atomic"

	"pcpda/internal/lock" // want `lockfree file imports "pcpda/internal/lock"`
	"pcpda/internal/rt"
)

type snap struct {
	mu   sync.Mutex   // want `lockfree file uses sync.Mutex`
	rw   sync.RWMutex // want `lockfree file uses sync.RWMutex`
	done atomic.Bool  // ok: atomics are the point of a lockfree file
}

func (s *snap) bad(t *lock.Table, o rt.JobID, x rt.Item) { // want `lockfree file references lock.Table`
	s.mu.Lock()  // want `lockfree file calls s.mu.Lock on a sync lock`
	s.rw.RLock() // want `lockfree file calls s.rw.RLock on a sync lock`
	t.Readers(x) // want `lockfree file calls lock-table method t.Readers`
}

func (s *snap) ok() bool { return s.done.Load() }
