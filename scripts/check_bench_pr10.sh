#!/usr/bin/env bash
# Machine checks for the PR 10 tracing-overhead rows in BENCH_pr10.json
# (written by scripts/bench_json.sh from a normal tree and a
# -DHISTAR_TRACE=0 tree; notrace rows carry an "@notrace" suffix).
#   1. warm lock-free batch: traced ns/op <= 1.05x notrace + a small
#      absolute grace (the rows are ~microseconds, so a pure percentage
#      gate would flap on scheduler noise; BENCH_PR10_GRACE_NS overrides);
#   2. dirty-1000 checkpoint (Bε-tree): same 5% + grace bound on the
#      disk-model time;
#   3. determinism: tracing must not change what the store writes — the
#      checkpoint's device write-op count is identical in both trees.
# grep/sed/awk only — no python, no JSON library.
#
# Usage: scripts/check_bench_pr10.sh [BENCH_pr10.json]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
F="${1:-$ROOT/BENCH_pr10.json}"
GRACE_NS="${BENCH_PR10_GRACE_NS:-200}"

if [ ! -f "$F" ]; then
  echo "check_bench_pr10.sh: $F missing — run scripts/bench_json.sh with a build-notrace tree first" >&2
  exit 1
fi

# field <exact-full-name> <field> — pull one numeric field off the matching
# row. The name must be exact (closing quote included in the match) so the
# traced row never shadows its "@notrace" twin.
field() {
  local row
  row="$(grep -F "\"full_name\": \"$1\"" "$F" | head -1)"
  if [ -z "$row" ]; then
    echo "check_bench_pr10.sh: no row named $1 in $F" >&2
    exit 1
  fi
  local val
  val="$(printf '%s\n' "$row" | sed -n "s/.*\"$2\": \([0-9.eE+-]*\).*/\1/p")"
  if [ -z "$val" ]; then
    echo "check_bench_pr10.sh: row $1 has no field $2" >&2
    exit 1
  fi
  printf '%s\n' "$val"
}

LF='BM_HiStarLockFreeBatchGet'
CK='BM_EngineCheckpointDirty/files:1000/iterations:1/manual_time'

LF_ON="$(field "$LF" ns_per_op)"
LF_OFF="$(field "$LF@notrace" ns_per_op)"
CK_ON="$(field "$CK" ns_per_op)"
CK_OFF="$(field "$CK@notrace" ns_per_op)"
CK_WOPS_ON="$(field "$CK" wops)"
CK_WOPS_OFF="$(field "$CK@notrace" wops)"

awk -v lf_on="$LF_ON" -v lf_off="$LF_OFF" \
    -v ck_on="$CK_ON" -v ck_off="$CK_OFF" \
    -v wops_on="$CK_WOPS_ON" -v wops_off="$CK_WOPS_OFF" \
    -v grace="$GRACE_NS" 'BEGIN {
  ok = 1
  lf_budget = 1.05 * (lf_off + 0) + grace + 0
  if (!(lf_on + 0 <= lf_budget)) {
    print "FAIL: lock-free batch traced ns/op (" lf_on ") > 1.05x notrace (" lf_off ") + " grace "ns"
    ok = 0
  }
  ck_budget = 1.05 * (ck_off + 0) + grace + 0
  if (!(ck_on + 0 <= ck_budget)) {
    print "FAIL: checkpoint traced ns/op (" ck_on ") > 1.05x notrace (" ck_off ") + " grace "ns"
    ok = 0
  }
  if (wops_on + 0 != wops_off + 0) {
    print "FAIL: tracing changed checkpoint write ops (" wops_on " vs " wops_off ")"
    ok = 0
  }
  if (ok) {
    print "BENCH_pr10 checks passed:"
    print "  lock-free batch: traced " lf_on " <= 1.05x notrace " lf_off " + " grace "ns"
    print "  checkpoint: traced " ck_on " <= 1.05x notrace " ck_off " + " grace "ns"
    print "  checkpoint wops unchanged by tracing: " wops_on
  }
  exit ok ? 0 : 1
}'
