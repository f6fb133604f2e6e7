#!/usr/bin/env bash
# Check "Unprintable paths and split shapes".
# Under a strict UTF-8 stdout, psd prints an --out path with a byte
# that is not UTF-8 in backslash escapes after writing it (exit 0). A
# split whose test epochs are 100 samples shorter than the others is
# an I/O error (3) in one stderr line, and psd creates no --out.
set -e
PYTHONIOENCODING=utf-8:strict eegcnn psd --split "$RUNNER_TEMP/cohort_split" --out "$RUNNER_TEMP/strict_psd"$'\xff'
test -f "$RUNNER_TEMP/strict_psd"$'\xff'/group_psd.csv
cp -r "$RUNNER_TEMP/cohort_split" "$RUNNER_TEMP/short_split"
python -c "import sys, numpy as np; np.save(sys.argv[1], np.load(sys.argv[1])[..., :-100])" "$RUNNER_TEMP/short_split/test_data.npy"
rc=0; eegcnn psd --split "$RUNNER_TEMP/short_split" --out "$RUNNER_TEMP/short_psd" 2> "$RUNNER_TEMP/short_psd.err" || rc=$?
test "$rc" -eq 3
test "$(wc -l < "$RUNNER_TEMP/short_psd.err")" -eq 1
grep -q "the partitions' epochs differ in shape" "$RUNNER_TEMP/short_psd.err"
test ! -e "$RUNNER_TEMP/short_psd"
