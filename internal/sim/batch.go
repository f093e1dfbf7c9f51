package sim

import (
	"fmt"

	"pcpda/internal/sched"
	"pcpda/internal/txn"
)

// BatchRun names one simulation in a RunBatch call: a set, a protocol and
// the per-run options (horizon, seed, fault layer, ...).
type BatchRun struct {
	Set      *txn.Set
	Protocol string
	Opts     Options
}

// RunBatch executes the runs one after another in the calling goroutine and
// returns the results in argument order, each the result Run gives for its
// entry (the golden test in batch_test.go gates this). The first error
// aborts the batch.
func RunBatch(runs []BatchRun) ([]*sched.Result, error) {
	out := make([]*sched.Result, len(runs))
	for i, r := range runs {
		if r.Set == nil {
			return nil, fmt.Errorf("sim: batch run %d: nil set", i)
		}
		res, err := Run(r.Set, r.Protocol, r.Opts)
		if err != nil {
			return nil, fmt.Errorf("sim: batch run %d: %s: %w", i, r.Protocol, err)
		}
		out[i] = res
	}
	return out, nil
}
