#!/usr/bin/env bash
# loadbench.sh — end-to-end load benchmark of the network transaction
# service: start pcpdad on a loopback port, drive it with pcpdaload, shut
# the daemon down with SIGTERM and require a clean drain audit (exit 0).
#
# Two modes:
#
#   Closed loop (default): drive LOAD_TXNS transactions and convert the
#   driver's benchmark line into a committed performance record via
#   cmd/benchjson (the BENCH_5 pipeline).
#
#   Overload sweep (LOAD_SWEEP set, e.g. "1,2,3,4"): measure the
#   closed-loop saturation rate, then run one open-loop Poisson step per
#   multiplier of it with a firm deadline budget, and write pcpdaload's
#   sweep document (goodput, deadline-miss ratio, shed counts per step)
#   to LOAD_OUT — the BENCH_6 overload artifact. The sweep requires the
#   server to actually shed: the run fails if no step recorded a shed or
#   infeasible rejection. LOAD_NEMESIS=1 routes the sweep through the
#   in-process fault-injection proxy.
#
# LOAD_PIPELINE=1 switches the driver to the tagged wire client. In the
# sweep this runs paired strict and pipelined rows per multiplier and
# records both saturation rates plus their ratio — the BENCH_7 artifact.
#
# LOAD_READMIX (requires LOAD_PIPELINE=1) declares that fraction of
# transactions read-only: they run on the lock-free multiversion snapshot
# path. The sweep then adds a mixed row per multiplier plus the zero-
# traffic proof (manager clock / lock table deltas over a read-only
# burst, fetched from pcpdad's stats endpoint) — the BENCH_8 artifact.
#
# Usage:
#   scripts/loadbench.sh                                # BENCH_5-style closed loop
#   LOAD_SWEEP=1,2,3,4 LOAD_OUT=BENCH_6.json scripts/loadbench.sh
#   LOAD_PIPELINE=1 LOAD_SWEEP=1,2,3,4 LOAD_OUT=BENCH_7.json scripts/loadbench.sh
#   LOAD_PIPELINE=1 LOAD_READMIX=0.9 LOAD_SWEEP=1,2,3 LOAD_OUT=BENCH_8.json scripts/loadbench.sh
#   LOAD_RACE=1 LOAD_SWEEP=1,2 LOAD_NEMESIS=1 scripts/loadbench.sh   # CI overload smoke
#
# Environment knobs:
#   LOAD_OUT      output JSON path            (default BENCH_5.json)
#   LOAD_TXT      output text log path        (default loadbench.txt)
#   LOAD_LABEL    label recorded in the JSON  (default current)
#   LOAD_CONNS    concurrent connections      (default 64)
#   LOAD_TXNS     committed transactions      (default 10000; sweep: calibration burst)
#   LOAD_SEED     workload seed               (default 7)
#   LOAD_ADDR     listen address              (default 127.0.0.1:9723)
#   LOAD_RACE     1 = build both binaries with -race (slower, CI smoke)
#   LOAD_FAULTS   1 = run the daemon with rtm fault injection on
#                 (default 1 closed loop, 0 sweep — injected rtm delays
#                 make the saturation calibration too noisy to step from)
#   LOAD_QUEUE    admission queue depth       (default 128; sweep default
#                 LOAD_CONNS — deep enough never to blanket-reject, since a
#                 session has at most one BEGIN outstanding)
#   LOAD_HW       shedding high-water mark    (sweep default LOAD_CONNS/4;
#                 0 elsewhere = server default of 3/4 queue depth)
#   LOAD_SWEEP    saturation multipliers, comma-separated (empty = closed loop)
#   LOAD_DEADLINE firm deadline per txn in the sweep (default 150ms)
#   LOAD_DURATION open-loop window per sweep step (default 4s)
#   LOAD_NEMESIS  1 = route the sweep through the nemesis fault proxy
#   LOAD_PIPELINE 1 = use the pipelined client (sweep: paired
#                 strict + pipelined rows per multiplier)
#   LOAD_WINDOW   pipelined in-flight window per connection (default 48)
#   LOAD_READMIX  fraction of transactions declared read-only (default 0;
#                 requires LOAD_PIPELINE=1; also starts pcpdad's stats
#                 endpoint and records the zero-lock-traffic proof)
#   LOAD_MAXCONNS pcpdad -max-conns session cap (default 0 = unlimited)
#   LOAD_HTTP     pcpdad stats/health listen address
#                 (default 127.0.0.1:9724 when LOAD_READMIX > 0)
set -euo pipefail
cd "$(dirname "$0")/.."

out=${LOAD_OUT:-BENCH_5.json}
txt=${LOAD_TXT:-loadbench.txt}
label=${LOAD_LABEL:-current}
conns=${LOAD_CONNS:-64}
txns=${LOAD_TXNS:-10000}
seed=${LOAD_SEED:-7}
addr=${LOAD_ADDR:-127.0.0.1:9723}
race=${LOAD_RACE:-0}
sweep=${LOAD_SWEEP:-}
# rtm fault injection adds run-to-run noise that swamps the saturation
# calibration, so the sweep defaults it off — the sweep measures the
# overload path, and network faults come from LOAD_NEMESIS instead.
if [[ -n "$sweep" ]]; then
	faults=${LOAD_FAULTS:-0}
else
	faults=${LOAD_FAULTS:-1}
fi
deadline=${LOAD_DEADLINE:-150ms}
duration=${LOAD_DURATION:-4s}
nemesis=${LOAD_NEMESIS:-0}
pipeline=${LOAD_PIPELINE:-0}
window=${LOAD_WINDOW:-48}
readmix=${LOAD_READMIX:-0}
maxconns=${LOAD_MAXCONNS:-0}
if [[ "$readmix" != 0 && "$pipeline" != 1 ]]; then
	echo "loadbench: LOAD_READMIX requires LOAD_PIPELINE=1 (read-only txns ride the tagged wire protocol)" >&2
	exit 1
fi
# The read mix needs pcpdad's stats endpoint for the zero-traffic proof.
if [[ "$readmix" != 0 ]]; then
	http=${LOAD_HTTP:-127.0.0.1:9724}
else
	http=${LOAD_HTTP:-}
fi
# Sweep queue sizing: a session has at most one BEGIN outstanding, so
# queue occupancy is bounded by LOAD_CONNS. Depth == conns means the
# queue itself never fills (no blanket overload rejections that would
# starve even top-priority work), while the low high-water mark (a
# quarter of conns) engages priority shedding early — overload is
# resolved by shedding the least important work, which is the protocol
# under test.
if [[ -n "$sweep" ]]; then
	queue=${LOAD_QUEUE:-$conns}
	hw=${LOAD_HW:-$((conns / 4))}
else
	queue=${LOAD_QUEUE:-128}
	hw=${LOAD_HW:-0}
fi

build=(go build)
if [[ "$race" == 1 ]]; then
	build+=(-race)
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
"${build[@]}" -o "$tmp/pcpdad" ./cmd/pcpdad
"${build[@]}" -o "$tmp/pcpdaload" ./cmd/pcpdaload

daemon_args=(-listen "$addr" -queue "$queue" -high-water "$hw")
if [[ "$faults" == 1 ]]; then
	daemon_args+=(-fault-abort 0.002 -fault-delay 0.01 -fault-wakeup 0.01)
fi
if [[ -n "$http" ]]; then
	daemon_args+=(-http "$http")
fi
if [[ "$maxconns" != 0 ]]; then
	daemon_args+=(-max-conns "$maxconns")
fi
"$tmp/pcpdad" "${daemon_args[@]}" > "$tmp/pcpdad.log" 2>&1 &
daemon=$!

# Wait for the listener to come up.
for _ in $(seq 1 100); do
	if "$tmp/pcpdaload" -addr "$addr" -conns 1 -txns 1 -seed 0 >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done

if [[ -n "$sweep" ]]; then
	# -op-timeout 2s: a nemesis-partitioned connection stalls its worker
	# only until the op deadline, not the default 10s.
	load_args=(-addr "$addr" -conns "$conns" -txns "$txns" -seed "$seed"
		-op-timeout 2s
		-sweep "$sweep" -deadline-budget "$deadline" -duration "$duration"
		-label "$label" -report "$out")
	if [[ "$nemesis" == 1 ]]; then
		load_args+=(-nemesis)
	fi
	if [[ "$pipeline" == 1 ]]; then
		load_args+=(-pipeline -window "$window")
	fi
	if [[ "$readmix" != 0 ]]; then
		load_args+=(-read-frac "$readmix" -stats "http://$http")
	fi
	"$tmp/pcpdaload" "${load_args[@]}" 2>&1 | tee "$txt"
else
	closed_args=(-addr "$addr" -conns "$conns" -txns "$txns" -seed "$seed"
		-bench -report "$tmp/report.json")
	if [[ "$pipeline" == 1 ]]; then
		closed_args+=(-pipeline -window "$window")
	fi
	if [[ "$readmix" != 0 ]]; then
		closed_args+=(-read-frac "$readmix" -stats "http://$http")
	fi
	"$tmp/pcpdaload" "${closed_args[@]}" | tee "$txt"
fi

# Graceful drain: the daemon's exit code is the leak audit.
kill -TERM "$daemon"
drain=0
wait "$daemon" || drain=$?
cat "$tmp/pcpdad.log"
if [[ "$drain" != 0 ]]; then
	echo "loadbench: pcpdad drain audit failed (exit $drain)" >&2
	exit 1
fi

if [[ -n "$sweep" ]]; then
	# Overload protection must have actually engaged somewhere in the
	# sweep, or the artifact proves nothing about degradation.
	shed=$(grep -Eo '"(shed|infeasible)": [0-9]+' "$out" | awk '{s+=$2} END {print s+0}')
	if [[ "$shed" == 0 ]]; then
		echo "loadbench: sweep recorded zero shed/infeasible rejections" >&2
		exit 1
	fi
	echo "wrote $out (sweep; $shed shed/infeasible rejections; text log: $txt)"
else
	grep '^Benchmark' "$txt" | go run ./cmd/benchjson -label "$label" \
		-note "pcpdad loopback: $conns conns, $txns txns, faults=$faults race=$race pipeline=$pipeline readmix=$readmix" > "$out"
	echo "wrote $out (text log: $txt)"
fi
