#!/usr/bin/env bash
# Check "Serial and parallel prepare agree".
# prepare loads the subjects in one worker process per CPU; pinned to
# one CPU it loads them in-process. Both must write the same bytes. A
# third run, with Python's import profile on, must import eegcnn's
# preprocess module but no module of the scipy.signal package (its filter
# loads scipy's compiled kernel on its own), and write the same bytes too.
set -e
taskset -c 0 eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/prepare_serial"
eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/prepare_pool"
PYTHONPROFILEIMPORTTIME=1 eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/prepare_profiled" 2> "$RUNNER_TEMP/prepare_imports.txt"
grep -Eq '\| +eegcnn\.preprocess$' "$RUNNER_TEMP/prepare_imports.txt"
if grep -E '\| +scipy\.signal(\.|$)' "$RUNNER_TEMP/prepare_imports.txt"; then exit 1; fi
for out in prepare_pool prepare_profiled; do
  test "$(ls "$RUNNER_TEMP/prepare_serial")" = "$(ls "$RUNNER_TEMP/$out")"
  for f in "$RUNNER_TEMP"/prepare_serial/*; do
    cmp "$f" "$RUNNER_TEMP/$out/$(basename "$f")" || exit 1
  done
done
