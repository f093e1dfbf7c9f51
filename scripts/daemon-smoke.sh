#!/usr/bin/env bash
# daemon-smoke.sh — the one thing the in-process tests cannot check:
# cmd/pcpdad itself. Its flag wiring (admission, rtm fault injection, -http)
# and SIGTERM → drain → exit code, under the race detector, driven by
# cmd/pcpdaload through a short closed loop of conversations (a frame per
# step), a pipelined closed-loop 90/10 read mix and then an open loop past
# saturation, through the nemesis proxy, with a 100 ms deadline budget.
# What those runs exercise inside the server `go test -race ./internal/server/`
# asserts (TestSoak, TestClosedLoopPipelinedReadMix, TestOpenLoopOverload,
# TestNemesisSoak, TestNemesisPipelined); this script requires only that the
# daemon took the load each way, kept its history bounded and audited
# (/stats, /debug/flight) and then drained clean.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:9723
http=127.0.0.1:9724
tmp=$(mktemp -d)
daemon=
trap '[[ -n "$daemon" ]] && kill "$daemon" 2>/dev/null; rm -rf "$tmp"' EXIT
go build -race -o "$tmp/pcpdad" ./cmd/pcpdad
go build -o "$tmp/pcpdaload" ./cmd/pcpdaload

# Queue as deep as the connection count and a low high-water mark: the queue
# never blanket-rejects, and overload is resolved by priority shedding.
"$tmp/pcpdad" -listen "$addr" -http "$http" -queue 64 -high-water 16 \
	-fault-abort 0.002 -fault-delay 0.01 -fault-wakeup 0.01 > "$tmp/pcpdad.log" 2>&1 &
daemon=$!
for _ in $(seq 1 100); do
	"$tmp/pcpdaload" -addr "$addr" -conns 1 -txns 1 >/dev/null 2>&1 && break
	sleep 0.1
done

"$tmp/pcpdaload" -addr "$addr" -conns 8 -txns 2000 -report "$tmp/conv.json"
"$tmp/pcpdaload" -addr "$addr" -conns 32 -txns 10000 -pipeline -read-frac 0.9 -report "$tmp/mix.json"
# -op-timeout 2s: a connection the nemesis partitions stalls its worker
# only that long, not the default 10s.
"$tmp/pcpdaload" -addr "$addr" -conns 64 -pipeline -nemesis -op-timeout 2s -attempts 3 \
	-arrival-rate 20000 -duration 3s -deadline-budget 100ms -report "$tmp/over.json"
curl -fsS "http://$http/stats" > "$tmp/stats.json"
curl -fsS "http://$http/debug/flight" > "$tmp/flight.txt"
curl -fsS "http://$http/debug/pprof/cmdline" > /dev/null

# sum FIELDS FILE: the total of the named top-level counters of a report.
sum() { grep -E "^  \"($1)\": [0-9]+" "$2" | awk '{s+=$2} END {print s+0}'; }
conv=$(sum committed "$tmp/conv.json")
ro=$(sum ro_committed "$tmp/mix.json")
refused=$(sum 'shed|infeasible' "$tmp/over.json")

# The manager's history after the three runs: a bounded window, and every
# update commit audited as it happened (read-only snapshot commits never
# enter the log). One /stats document is one Stats() call under the manager
# mutex, so the two commit counts are read at the same instant.
mstat() { grep -E "^ +\"$1\": [0-9]+" "$tmp/stats.json" | head -1 | tr -dc '0-9'; }
commits=$(mstat Commits) audited=$(mstat CommitsAudited)
violations=$(mstat AuditViolations) retained=$(mstat HistoryRetained)
ring=$(sed -n 's/^const RingCap = 1 << \([0-9]*\)$/\1/p' internal/history/ring.go)
echo "daemon-smoke: commits=$commits audited=$audited audit_violations=$violations history_retained=$retained (ring 1<<$ring)"
if [[ "$violations" != 0 || -z "$commits" || "$commits" == 0 || "$audited" != "$commits" ]]; then
	echo "daemon-smoke: continuous audit: $violations violations, $audited of $commits commits audited" >&2
	exit 1
fi
if (( retained > 1 << ring )); then
	echo "daemon-smoke: history window holds $retained operations, above the ring's 1<<$ring" >&2
	exit 1
fi
if ! grep -qE '^B[0-9]+|[ ]C[0-9]+' "$tmp/flight.txt"; then
	echo "daemon-smoke: /debug/flight served no operations" >&2
	exit 1
fi

kill -TERM "$daemon"
drain=0; wait "$daemon" || drain=$?
daemon=
cat "$tmp/pcpdad.log"
echo "daemon-smoke: conversation committed=$conv ro_committed=$ro shed+infeasible=$refused pcpdad exit=$drain"
if [[ "$conv" == 0 ]]; then
	echo "daemon-smoke: the conversation-mode closed loop committed nothing" >&2
	exit 1
fi
if [[ "$ro" == 0 ]]; then
	echo "daemon-smoke: the read mix committed no read-only transaction" >&2
	exit 1
fi
if [[ "$refused" == 0 ]]; then
	echo "daemon-smoke: past saturation and nothing shed or refused as infeasible" >&2
	exit 1
fi
if [[ "$drain" != 0 ]]; then
	echo "daemon-smoke: pcpdad drain audit failed (exit $drain)" >&2
	exit 1
fi
