#!/usr/bin/env bash
# Check "Serial and parallel prepare agree".
# prepare loads the subjects in one worker process per CPU; pinned to
# one CPU it loads them in-process. Both must write the same bytes.
set -e
taskset -c 0 eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/prepare_serial"
eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/prepare_pool"
test "$(ls "$RUNNER_TEMP/prepare_serial")" = "$(ls "$RUNNER_TEMP/prepare_pool")"
for f in "$RUNNER_TEMP"/prepare_serial/*; do
  cmp "$f" "$RUNNER_TEMP/prepare_pool/$(basename "$f")" || exit 1
done
