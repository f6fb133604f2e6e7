#!/usr/bin/env bash
# Check "Truncated partition".
# A train_data.npy cut one epoch's bytes short of what its header
# declares is an I/O error (3) for each command that reads the split:
# one stderr line that names the file, and no --out.
set -e
cp -r "$RUNNER_TEMP/cohort_split" "$RUNNER_TEMP/cut_split"
python -c "
import os, sys
import numpy as np
from eegcnn.checkpoint import save_checkpoint
from eegcnn.model import ModelConfig, init_params
path = sys.argv[1]
n, channels, samples = np.load(path, mmap_mode='r').shape
os.truncate(path, os.path.getsize(path) - 8 * channels * samples)
save_checkpoint(sys.argv[2], init_params(0, ModelConfig(channels, 4, 3)), 0)
" "$RUNNER_TEMP/cut_split/train_data.npy" "$RUNNER_TEMP/cut_model.bin"
for command in train evaluate psd; do
  case "$command" in
    train) extra="--epochs 1 --in-channels 4 --out-channels 4 --kernel 3" ;;
    evaluate) extra="--checkpoint $RUNNER_TEMP/cut_model.bin" ;;
    psd) extra="" ;;
  esac
  rc=0; eegcnn "$command" --split "$RUNNER_TEMP/cut_split" --out "$RUNNER_TEMP/cut_$command" $extra 2> "$RUNNER_TEMP/cut_$command.err" || rc=$?
  test "$rc" -eq 3
  test "$(wc -l < "$RUNNER_TEMP/cut_$command.err")" -eq 1
  grep -qF "$RUNNER_TEMP/cut_split/train_data.npy: " "$RUNNER_TEMP/cut_$command.err"
  test ! -e "$RUNNER_TEMP/cut_$command"
done
