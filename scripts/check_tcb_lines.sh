#!/usr/bin/env bash
# Gates the size of the trusted computing base (src/core + src/kernel +
# src/store, as counted by bench_codesize): fails when the TCB line total
# exceeds the ceiling below. The ceiling is the measured total of the last
# change that shrank the TCB; a change that grows it must raise the ceiling
# here, in the same diff, with its measured reason.
#
# Usage: scripts/check_tcb_lines.sh [build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
# 12,367 → 12,414 (+47 net): sys_segment_cas, the atomic compare-and-swap
# on a segment word that user-level mutexes need. Their two-call compare
# (a read, then a separate write) lost wake-ups and hung the Fig. 13 build
# and 24 concurrent creators in one directory; the retired kMapUpdate
# message kind offsets part of it.
# 12,414 → 12,505 (+91 net): one barrier per store commit, which cuts
# fs_durable setup_s from 54.5 to 38.6 ms. The commit writes the section
# and the superblock under one barrier, so recovery must tell a flip that
# landed without its writes (checksum, node seal, epoch) from a refusal,
# read once more, and boot the previous commit.
# 12,505 → 12,450 (−55 net): syscall trace events are written once, when
# their dispatch group closes (the back-patch scans are gone), and the
# kernel's blob codec shares the store's little-endian primitives.
CEILING=12450

if [ ! -x "$BUILD/bench_codesize" ]; then
  echo "check_tcb_lines.sh: $BUILD/bench_codesize missing — build it first" >&2
  exit 1
fi

OUT="$("$BUILD/bench_codesize")"
TCB="$(printf '%s\n' "$OUT" | sed -n 's/^trusted computing base : *\([0-9][0-9]*\) lines.*/\1/p')"
SEMI="$(printf '%s\n' "$OUT" | sed -n 's/^TCB with a semicolon *: *\([0-9][0-9]*\) lines.*/\1/p')"
if [ -z "$TCB" ]; then
  echo "check_tcb_lines.sh: no TCB total in bench_codesize output:" >&2
  printf '%s\n' "$OUT" >&2
  exit 1
fi

if [ "$TCB" -gt "$CEILING" ]; then
  echo "FAIL: TCB is $TCB lines, ceiling $CEILING (scripts/check_tcb_lines.sh)"
  exit 1
fi
echo "TCB lines: $TCB <= ceiling $CEILING (${SEMI:-?} with a semicolon)"
