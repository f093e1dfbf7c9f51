#!/bin/sh
# escapes.sh — cross-check for the allocfree analyzer (DESIGN.md §10).
#
# The //pcpda:alloc-free annotation is enforced syntactically by pcpdalint;
# this script asks the compiler's escape analysis for ground truth. It
# rebuilds the hot-path packages with -gcflags=-m, normalizes the
# "escapes to heap" / "moved to heap" diagnostics (line:col stripped, so
# unrelated edits that shift lines don't churn the baseline; a genuinely
# new allocation site is a new message) and diffs the unique set against
# the committed baseline.
#
#   scripts/escapes.sh            # compare against scripts/escapes.baseline
#   scripts/escapes.sh -update    # rewrite the baseline (review the diff!)
#
# Escape analysis output is compiler-version dependent: the baseline
# records the Go version it was made with, and when the running toolchain
# differs the diff is shown as a warning but does not fail — the check is
# strict only under the baseline's own Go version. Rebaseline with -update
# after a toolchain bump.
set -eu

cd "$(dirname "$0")/.."
BASELINE=scripts/escapes.baseline
PKGS="./internal/rt ./internal/cc ./internal/lock ./internal/history ./internal/sched ./internal/rtm ./internal/wire ./internal/db ./internal/server ./internal/client"
GOVER=$(go env GOVERSION)

snapshot() {
	# -a defeats the build cache (cached packages print no diagnostics).
	go build -a -gcflags=-m $PKGS 2>&1 |
		grep -E "moved to heap|escapes to heap" |
		sed -E 's/^([^:]+):[0-9]+:[0-9]+:/\1:/' |
		LC_ALL=C sort -u
}

if [ "${1:-}" = "-update" ]; then
	{
		echo "# go: $GOVER"
		snapshot
	} >"$BASELINE"
	echo "escapes.sh: baseline rewritten for $GOVER ($(grep -c . "$BASELINE") lines)"
	exit 0
fi

[ -f "$BASELINE" ] || { echo "escapes.sh: missing $BASELINE (run scripts/escapes.sh -update)" >&2; exit 1; }
BASEVER=$(sed -n 's/^# go: //p' "$BASELINE")

TMP=$(mktemp)
BASE=$(mktemp)
trap 'rm -f "$TMP" "$BASE"' EXIT
snapshot >"$TMP"
grep -v '^#' "$BASELINE" >"$BASE"

if diff -u "$BASE" "$TMP"; then
	echo "escapes.sh: escape-analysis output matches baseline ($BASEVER)"
	exit 0
fi

if [ "$GOVER" != "$BASEVER" ]; then
	echo "escapes.sh: WARNING: diff above is against a $BASEVER baseline under $GOVER; not failing (rebaseline with -update)" >&2
	exit 0
fi
echo "escapes.sh: escape-analysis output changed — new allocation sites in hot-path packages? (rebaseline with -update if intended)" >&2
exit 1
