#!/usr/bin/env bash
# Check "Serial and parallel train agree".
# From TRAIN_POOL_MIN_WORK of training_work per example up, train runs
# each mini-batch in rounds of one example per process: this process
# and one forked worker per further CPU; pinned to one CPU it trains
# in-process. An example's dropout comes from its own (seed, epoch,
# index) stream, whichever process draws it, and the whole call runs
# on one BLAS thread whatever the caller set, so the pooled run, the
# pinned one and a pooled one under OPENBLAS_NUM_THREADS=2 must write
# the same bytes (train's bytes on this split differ between one and
# two BLAS threads). Batch 2 is one round on two CPUs; batch 3 is two
# rounds, the second of one example. A 16-channel, kernel-11 model
# with 16 filters has 2866 parameters, so an example of 500 samples
# is 500 x 2866 + EXAMPLE_WORK (1e6) = 2.43e6, above
# TRAIN_POOL_MIN_WORK (2e6); the python line checks that it stays
# above.
set -e
unset OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS
python -c "from eegcnn.train import TRAIN_POOL_MIN_WORK, training_work; assert training_work(1, 1, 500, 2866) >= TRAIN_POOL_MIN_WORK"
for batch in 2 3; do
  train="--split $RUNNER_TEMP/wide_split --epochs 3 --in-channels 16 --out-channels 16 --kernel 11 --batch-size $batch"
  out="$RUNNER_TEMP/train_batch$batch"
  eegcnn train $train --out "${out}_pool"
  taskset -c 0 eegcnn train $train --out "${out}_serial"
  OPENBLAS_NUM_THREADS=2 eegcnn train $train --out "${out}_pool_blas2"
  for run in serial pool_blas2; do
    for f in checkpoint.bin history.json; do
      cmp "${out}_pool/$f" "${out}_$run/$f" || exit 1
    done
  done
done
