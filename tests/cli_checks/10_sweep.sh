#!/usr/bin/env bash
# Check "Sweep".
# A sweep point is any valid model, kernel 1 included; the seed
# policy is no setting, so --seed-policy exits 2. Every point
# replaces the swept setting, so an even --kernel in a kernel_size
# sweep is not checked.
set -e
eegcnn sweep --split "$RUNNER_TEMP/cohort_split" --out "$RUNNER_TEMP/cohort_sweep" --sweep-parameter kernel_size --sweep-values 1,3 --epochs 1 --in-channels 4 --out-channels 4 --kernel 3
test "$(wc -l < "$RUNNER_TEMP/cohort_sweep/ablation.csv")" -eq 3
eegcnn sweep --split "$RUNNER_TEMP/cohort_split" --out "$RUNNER_TEMP/even_kernel_sweep" --sweep-parameter kernel_size --sweep-values 1,3 --epochs 1 --in-channels 4 --out-channels 4 --kernel 4
test "$(wc -l < "$RUNNER_TEMP/even_kernel_sweep/ablation.csv")" -eq 3
rc=0; eegcnn sweep --split "$RUNNER_TEMP/cohort_split" --out "$RUNNER_TEMP/cohort_sweep2" --sweep-parameter kernel_size --sweep-values 1,3 --epochs 1 --in-channels 4 --out-channels 4 --kernel 3 --seed-policy per_value || rc=$?
test "$rc" -eq 2
