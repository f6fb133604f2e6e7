#!/usr/bin/env bash
# Check "Default output bytes do not depend on the CPU count".
# The package runs BLAS on one thread unless a BLAS thread variable is
# set. A 16-channel, kernel-11 model is large enough for OpenBLAS to
# split its GEMMs over threads, which changes the last bits. Training
# and both probes with no variable set, with OPENBLAS_NUM_THREADS=1 and
# pinned to one CPU must write the same bytes.
set -e
unset OMP_NUM_THREADS OPENBLAS_NUM_THREADS MKL_NUM_THREADS
python -c "
import json, pathlib, sys
from eegcnn.data import write_subject_csv
from eegcnn.synth import synthetic_dataset
root = pathlib.Path(sys.argv[1])
root.mkdir()
names = [f'ch{i}' for i in range(16)]
entries = []
for sub in synthetic_dataset(n_subjects=6, channels=16, fs=100.0, n_epochs=2, seed=3):
    write_subject_csv(root / f'{sub.subject_id}.csv', sub, names)
    entries.append({'id': sub.subject_id, 'file': f'{sub.subject_id}.csv',
                    'label': 'PD' if sub.label else 'Control'})
manifest = {'fs': 100.0, 'channels': names, 'subjects': entries}
(root / 'manifest.json').write_text(json.dumps(manifest))
" "$RUNNER_TEMP/wide"
eegcnn prepare --manifest "$RUNNER_TEMP/wide/manifest.json" --out "$RUNNER_TEMP/wide_split"
for run in default one_thread one_cpu; do
  case "$run" in
    default) launch="" ;;
    one_thread) launch="env OPENBLAS_NUM_THREADS=1" ;;
    one_cpu) launch="taskset -c 0" ;;
  esac
  $launch eegcnn train --split "$RUNNER_TEMP/wide_split" --out "$RUNNER_TEMP/wide_$run/train" --epochs 2 --in-channels 16 --out-channels 16 --kernel 11
  $launch eegcnn probe --checkpoint "$RUNNER_TEMP/wide_$run/train/checkpoint.bin" --out "$RUNNER_TEMP/wide_$run/probe" --repeats-sine 2
done
test "$(ls "$RUNNER_TEMP"/wide_default/probe/filter_response_ch*.csv | wc -l)" -eq 16
for run in one_thread one_cpu; do
  test "$(cd "$RUNNER_TEMP/wide_default" && ls -R)" = "$(cd "$RUNNER_TEMP/wide_$run" && ls -R)"
  for f in "$RUNNER_TEMP"/wide_default/*/*; do
    cmp "$f" "$RUNNER_TEMP/wide_$run/${f#"$RUNNER_TEMP/wide_default/"}" || exit 1
  done
done
