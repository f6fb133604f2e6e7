#!/usr/bin/env bash
# Check "Filter order and class count".
# The SOS high-pass is stable at every order (the polynomial design
# exited 2 on order 8 at 0.5 Hz), and the labels are binary, so
# --classes is no flag (exit 2).
set -e
python -c "
import json, pathlib, sys
from eegcnn.data import write_subject_csv
from eegcnn.synth import synthetic_dataset
root = pathlib.Path(sys.argv[1])
root.mkdir()
names = [f'ch{i}' for i in range(4)]
entries = []
for sub in synthetic_dataset(n_subjects=6, channels=4, fs=500.0, n_epochs=2, seed=1):
    write_subject_csv(root / f'{sub.subject_id}.csv', sub, names)
    entries.append({'id': sub.subject_id, 'file': f'{sub.subject_id}.csv',
                    'label': 'PD' if sub.label else 'Control'})
manifest = {'fs': 500.0, 'channels': names, 'subjects': entries}
(root / 'manifest.json').write_text(json.dumps(manifest))
" "$RUNNER_TEMP/cohort"
eegcnn prepare --manifest "$RUNNER_TEMP/cohort/manifest.json" --out "$RUNNER_TEMP/cohort_split" --cutoff-hz 0.5 --filter-order 8
rc=0; eegcnn train --split "$RUNNER_TEMP/cohort_split" --out "$RUNNER_TEMP/cohort_train" --epochs 1 --in-channels 4 --out-channels 4 --kernel 3 --classes 3 || rc=$?
test "$rc" -eq 2
