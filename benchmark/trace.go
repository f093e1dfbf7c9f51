package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanKind names the call a span wraps. Spans are recorded from the
// benchmark's own files, around each call into a layer; spans inside the
// program are a later change.
type spanKind uint8

const (
	spTxn      spanKind = iota // svc-sat-update, mgr-contended: one transaction, submit to outcome
	spSubmit                   // client.SubmitTxn
	spAwait                    // client.TxnFuture.Wait
	spCycle                    // svc-lat-cycle: one sense→actuate cycle
	spRO                       // client.RunReadTxn
	spUpd                      // client.RunTxn
	spBegin                    // rtm.Manager.Begin
	spRead                     // rtm.Txn.Read
	spWrite                    // rtm.Txn.Write
	spCommit                   // rtm.Txn.Commit
	spPoint                    // sim-sweep: one set under all nine protocols
	spRunBatch                 // sim.RunBatch
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "client.submit", "client.await", "cycle", "client.ro_txn", "client.upd_txn",
	"rtm.begin", "rtm.read", "rtm.write", "rtm.commit", "point", "sim.run_batch",
}

// span is one timed call. Spans of one transaction share txn; parent is
// the index of the enclosing span in the same tracer, -1 for a root.
type span struct {
	kind       spanKind
	parent     int32
	txn        uint32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps the spans of one worker goroutine in memory. It is owned by
// that goroutine while a segment runs and read by the runner afterwards;
// a nil tracer records nothing and costs one branch per call, which is how
// the end-to-end run (tracing off) and the traced run share one load loop.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(kind spanKind, txn uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: kind, parent: parent, txn: txn, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// spanCost is what one begin/end pair adds to the span it measures (the
// clock read between the two timestamps), calibrated on this host so the
// nanosecond-scale manager spans can be reported net of it.
func spanCost() int64 {
	t := newTracer(time.Now(), 4096)
	for i := 0; i < 4096; i++ {
		t.end(t.begin(spTxn, 0, -1))
	}
	return kindStats(t.spans)[spTxn].p50
}

// kindStat summarises the spans of one kind.
type kindStat struct {
	count int
	p50   int64 // median duration, ns
	self  int64 // total self time, ns: duration minus the part child spans cover
	total int64 // total duration, ns
}

// kindStats folds spans (one tracer's, or several concatenated with
// parents already rebased) into per-kind statistics.
func kindStats(spans []span) [numSpanKinds]kindStat {
	var out [numSpanKinds]kindStat
	child := make([]int64, len(spans)) // time covered by children, per span
	durs := make([][]int64, numSpanKinds)
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		if s.parent >= 0 {
			child[s.parent] += d
		}
		durs[s.kind] = append(durs[s.kind], d)
		out[s.kind].count++
		out[s.kind].total += d
	}
	for i := range spans {
		out[spans[i].kind].self += spans[i].end - spans[i].start - child[i]
	}
	for k := range durs {
		slices.Sort(durs[k])
		out[k].p50 = percentile(durs[k], 0.5)
	}
	return out
}

// mergeSpans concatenates the workers' spans, rebasing parent indices.
func mergeSpans(trs []*tracer) []span {
	var all []span
	for _, t := range trs {
		base := int32(len(all))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// maxSpansWritten bounds the trace file: the metrics use every span, the
// file keeps the head of each run so it stays a few megabytes.
const maxSpansWritten = 50000

// writeTrace writes the spans (up to maxSpansWritten) and their per-kind
// summary to benchmark/out/trace-<workload>.json.
func writeTrace(root, workload string, spans []span, stats [numSpanKinds]kindStat) (string, error) {
	type spanJSON struct {
		Name    string `json:"name"`
		Txn     uint32 `json:"txn"`
		Parent  int32  `json:"parent"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	type kindJSON struct {
		Name   string  `json:"name"`
		Count  int     `json:"count"`
		P50Us  float64 `json:"p50_us"`
		SelfMs float64 `json:"self_ms"`
	}
	doc := struct {
		Workload     string     `json:"workload"`
		SpansTotal   int        `json:"spans_total"`
		SpansWritten int        `json:"spans_written"`
		Kinds        []kindJSON `json:"kinds"`
		Spans        []spanJSON `json:"spans"`
	}{Workload: workload, SpansTotal: len(spans)}
	for k, st := range stats {
		if st.count > 0 {
			doc.Kinds = append(doc.Kinds, kindJSON{spanNames[k], st.count, float64(st.p50) / 1e3, float64(st.self) / 1e6})
		}
	}
	for _, s := range spans[:min(len(spans), maxSpansWritten)] {
		doc.Spans = append(doc.Spans, spanJSON{spanNames[s.kind], s.txn, s.parent, s.start, s.end})
	}
	doc.SpansWritten = len(doc.Spans)
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
