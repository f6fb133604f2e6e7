#!/usr/bin/env bash
# Check "Partition files are np.save's bytes".
# prepare writes each <partition>_data.npy as a hand-written .npy
# 1.0 header and then each subject's epochs, with no stack in memory.
# Saving the loaded array again with this numpy must give the same
# file.
set -e
for f in "$RUNNER_TEMP"/prepare_pool/*_data.npy; do
  python -c "import sys, numpy as np; np.save(sys.argv[2], np.load(sys.argv[1]))" "$f" "$RUNNER_TEMP/resaved.npy"
  cmp "$f" "$RUNNER_TEMP/resaved.npy" || exit 1
done
test "$(ls "$RUNNER_TEMP"/prepare_pool/*_data.npy | wc -l)" -eq 3
