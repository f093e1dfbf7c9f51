// Package fault provides seeded fault injection for the live transaction
// manager (internal/rtm).
//
// The manager consults a pluggable Injector at every blocking, grant and
// commit boundary. An injector answers with an Action: proceed normally,
// perturb scheduling (Delay), wake every parked transaction spuriously
// (Wakeup), or terminate the requesting transaction as if it had been
// sacrificed (ForceAbort) or its caller's context had been cancelled
// (ForceCancel). The manager applies the action through exactly the same
// recovery code the real failure would take, so an injected fault exercises
// the production error paths, not test-only shortcuts.
//
// The default is no injector at all: the manager guards every consultation
// with a nil check, so the disabled path costs one predictable branch.
//
// Two implementations. Func adapts a function: the live explorer
// (sim.TestExploreManagerFreeOrder) answers one action at one chosen
// consultation of a run with it, and Proceed at every other. Seeded draws
// a probability per action from a seeded PRNG, for load (pcpdad's -fault-*
// flags, rtm's herd): its decision stream is
// deterministic for a given seed, but which call in the stream lands on
// which goroutine depends on the Go scheduler, so a seed reproduces a
// statistical schedule shape, not an interleaving.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Point identifies one instrumented boundary inside the manager.
type Point uint8

const (
	// BeginTxn fires after a transaction is admitted and registered.
	BeginTxn Point = iota
	// LockRequest fires before each evaluation of a lock request (once per
	// retry of the grant loop).
	LockRequest
	// LockGrant fires after a lock has been granted and recorded.
	LockGrant
	// BlockWait fires each time a transaction is about to park on the
	// manager condition for a lock.
	BlockWait
	// CommitEntry fires at the start of Commit, before the stale-reader
	// scan.
	CommitEntry
	// CommitWait fires each time a committer is about to park waiting out
	// stale readers.
	CommitWait
	// CommitInstall fires after the commit guard has passed, immediately
	// before workspace installation.
	CommitInstall

	numPoints
)

var pointNames = [numPoints]string{
	BeginTxn:      "begin",
	LockRequest:   "lock-request",
	LockGrant:     "lock-grant",
	BlockWait:     "block-wait",
	CommitEntry:   "commit-entry",
	CommitWait:    "commit-wait",
	CommitInstall: "commit-install",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Action is what an injector asks the manager to do at a point.
type Action uint8

const (
	// Proceed means no fault: continue normally.
	Proceed Action = iota
	// Delay perturbs scheduling (the manager yields, releasing its lock
	// where that is safe) and then proceeds.
	Delay
	// Wakeup spuriously broadcasts the manager condition: every parked
	// transaction re-evaluates its wait condition.
	Wakeup
	// ForceAbort terminates the transaction exactly as a cycle-victim
	// sacrifice would (rtm.ErrAborted; retryable).
	ForceAbort
	// ForceCancel terminates the transaction exactly as a context
	// cancellation would (rtm.ErrCancelled wrapping ErrInjected).
	ForceCancel

	numActions
)

var actionNames = [numActions]string{
	Proceed:     "proceed",
	Delay:       "delay",
	Wakeup:      "wakeup",
	ForceAbort:  "force-abort",
	ForceCancel: "force-cancel",
}

func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ErrInjected is the cause carried by an injected cancellation, so tests
// and retry loops can tell synthetic failures from real ones with
// errors.Is.
var ErrInjected = errors.New("fault: injected failure")

// Injector decides, at each instrumented point, whether to inject a fault.
//
// At is called with the manager's internal lock held: implementations must
// be fast, must not call back into the manager, and must be safe for
// concurrent use.
type Injector interface {
	At(p Point, txn string) Action
}

// Func adapts a plain function to the Injector interface (handy for
// targeted tests).
type Func func(p Point, txn string) Action

// At implements Injector.
func (f Func) At(p Point, txn string) Action { return f(p, txn) }

// Config parameterizes a Seeded injector. The four probabilities are
// evaluated in order (Delay, Wakeup, Abort, Cancel) against one uniform
// draw per consultation; their sum should be ≤ 1.
type Config struct {
	// Seed drives the PRNG; the decision stream is a pure function of it.
	Seed int64
	// PDelay is the probability of a scheduling perturbation.
	PDelay float64
	// PWakeup is the probability of a spurious broadcast.
	PWakeup float64
	// PAbort is the probability of a forced abort.
	PAbort float64
	// PCancel is the probability of a forced cancellation.
	PCancel float64
}

// Seeded is a probabilistic injector with a deterministic decision stream.
// It is safe for concurrent use.
type Seeded struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg Config
}

// NewSeeded returns a Seeded injector for cfg.
func NewSeeded(cfg Config) *Seeded {
	return &Seeded{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// At implements Injector.
func (s *Seeded) At(p Point, txn string) Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := s.rng.Float64()
	switch {
	case u < s.cfg.PDelay:
		return Delay
	case u < s.cfg.PDelay+s.cfg.PWakeup:
		return Wakeup
	case u < s.cfg.PDelay+s.cfg.PWakeup+s.cfg.PAbort:
		return ForceAbort
	case u < s.cfg.PDelay+s.cfg.PWakeup+s.cfg.PAbort+s.cfg.PCancel:
		return ForceCancel
	}
	return Proceed
}
