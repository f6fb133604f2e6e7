#!/usr/bin/env bash
# Check "Serial and parallel probe agree".
# Above a break-even size the tone sweep's arc sums run in one forked
# worker per CPU; pinned to one CPU they run in-process. At the
# defaults and at the benchmark's shape (--repeats-sine 1) both must
# write the same bytes. A map that overflows in the workers exits 4
# in one stderr line: they run under the command's numpy error state.
set -e
taskset -c 0 eegcnn probe --checkpoint "$RUNNER_TEMP/paper.bin" --out "$RUNNER_TEMP/probe_serial"
taskset -c 0 eegcnn probe --checkpoint "$RUNNER_TEMP/paper.bin" --out "$RUNNER_TEMP/probe_serial_r1" --repeats-sine 1
eegcnn probe --checkpoint "$RUNNER_TEMP/paper.bin" --out "$RUNNER_TEMP/probe_r1" --repeats-sine 1
for pair in probe_serial:probe probe_serial_r1:probe_r1; do
  serial="$RUNNER_TEMP/${pair%%:*}" pooled="$RUNNER_TEMP/${pair#*:}"
  test "$(ls "$serial")" = "$(ls "$pooled")"
  for f in "$serial"/*; do
    cmp "$f" "$pooled/$(basename "$f")" || exit 1
  done
done
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/paper.bin" --out "$RUNNER_TEMP/overflow_pool" --repeats-sine 1 --amplitude 1e308 2> "$RUNNER_TEMP/overflow_pool.err" || rc=$?
test "$rc" -eq 4
test "$(wc -l < "$RUNNER_TEMP/overflow_pool.err")" -eq 1
grep -q "^error: sensitivity map has" "$RUNNER_TEMP/overflow_pool.err"
test ! -e "$RUNNER_TEMP/overflow_pool"
