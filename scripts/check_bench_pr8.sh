#!/usr/bin/env bash
# Machine checks for the PR 8 engine rows in BENCH_pr8.json (written by
# scripts/bench_json.sh). Three absolute bounds on the Bε-tree rows:
#   1. dirty-1000 checkpoint: at most 2 device write ops (one message
#      section with its trailing checksum, then the superblock flip; one
#      barrier commits both);
#   2. dirty-1000 checkpoint: bytes written stay within 2x of the
#      serialized payload (message framing is cheap);
#   3. restore: at most 23 disk-model seeks (sequential node/section runs,
#      not one seek per object).
# Bounds 2 and 3 are the Bε-tree's measured figures at the time the blob
# engine these rows used to be compared against was removed; bound 1 was
# 3 until the section and its checksum became one write.
# grep/sed/awk only — no python, no JSON library.
#
# Usage: scripts/check_bench_pr8.sh [BENCH_pr8.json]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
F="${1:-$ROOT/BENCH_pr8.json}"

if [ ! -f "$F" ]; then
  echo "check_bench_pr8.sh: $F missing — run scripts/bench_json.sh first" >&2
  exit 1
fi

# ctr <row-name-prefix> <counter> — pull one counter off the matching row.
ctr() {
  local row
  row="$(grep -F "\"full_name\": \"$1" "$F" | head -1)"
  if [ -z "$row" ]; then
    echo "check_bench_pr8.sh: no row matching $1 in $F" >&2
    exit 1
  fi
  local val
  val="$(printf '%s\n' "$row" | sed -n "s/.*\"$2\": \([0-9.eE+-]*\).*/\1/p")"
  if [ -z "$val" ]; then
    echo "check_bench_pr8.sh: row $1 has no counter $2" >&2
    exit 1
  fi
  printf '%s\n' "$val"
}

WOPS="$(ctr 'BM_EngineCheckpointDirty/files:1000/iterations:1/manual_time' wops)"
WBYTES="$(ctr 'BM_EngineCheckpointDirty/files:1000/iterations:1/manual_time' wbytes)"
PAYLOAD="$(ctr 'BM_EngineCheckpointDirty/files:1000/iterations:1/manual_time' payload)"
SEEKS="$(ctr 'BM_EngineRestore/files:1000/iterations:1/manual_time' seeks)"

awk -v wops="$WOPS" -v wbytes="$WBYTES" -v payload="$PAYLOAD" \
    -v seeks="$SEEKS" 'BEGIN {
  ok = 1
  if (!(wops + 0 <= 2)) {
    print "FAIL: checkpoint write ops (" wops ") > 2"
    ok = 0
  }
  if (!(wbytes + 0 <= 2 * (payload + 0))) {
    print "FAIL: checkpoint bytes (" wbytes ") > 2x payload (" payload ")"
    ok = 0
  }
  if (!(seeks + 0 <= 23)) {
    print "FAIL: restore seeks (" seeks ") > 23"
    ok = 0
  }
  if (ok) {
    print "BENCH_pr8 checks passed:"
    print "  checkpoint wops: " wops " <= 2"
    print "  checkpoint bytes: " wbytes " <= 2x payload " payload
    print "  restore seeks: " seeks " <= 23"
  }
  exit ok ? 0 : 1
}'
