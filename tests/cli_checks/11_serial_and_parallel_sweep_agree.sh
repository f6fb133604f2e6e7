#!/usr/bin/env bash
# Check "Serial and parallel sweep agree".
# Above a break-even size the sweep's points train in one forked worker
# per CPU, largest first; pinned to one CPU they train in-process.
# Every point runs on one BLAS thread whatever the caller set, so the
# pooled sweep, the pinned one and a pooled one under
# OPENBLAS_NUM_THREADS=2 must write the same bytes. On the 16-channel,
# kernel-11 split, train's checkpoint bytes differ between one and two
# BLAS threads. The sweep's training_work, epochs x training examples
# x (samples x parameters + EXAMPLE_WORK) summed over the points, is
# 8 x 8 x (500 x 17190 + 3 x 1e6) = 7.4e8, above SWEEP_POOL_MIN_WORK
# (5e8); the python line checks that it stays above.
set -e
unset OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS
python -c "from eegcnn.experiments import SWEEP_POOL_MIN_WORK; from eegcnn.train import training_work; assert sum(training_work(8, 8, 500, size) for size in (2866, 5730, 8594)) >= SWEEP_POOL_MIN_WORK"
sweep="--split $RUNNER_TEMP/wide_split --sweep-parameter out_channels --sweep-values 16,32,48 --epochs 8 --in-channels 16 --kernel 11"
eegcnn sweep $sweep --out "$RUNNER_TEMP/sweep_pool"
taskset -c 0 eegcnn sweep $sweep --out "$RUNNER_TEMP/sweep_serial"
OPENBLAS_NUM_THREADS=2 eegcnn sweep $sweep --out "$RUNNER_TEMP/sweep_pool_blas2"
test "$(wc -l < "$RUNNER_TEMP/sweep_pool/ablation.csv")" -eq 4
cmp "$RUNNER_TEMP/sweep_pool/ablation.csv" "$RUNNER_TEMP/sweep_serial/ablation.csv"
cmp "$RUNNER_TEMP/sweep_pool/ablation.csv" "$RUNNER_TEMP/sweep_pool_blas2/ablation.csv"
