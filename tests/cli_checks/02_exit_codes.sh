#!/usr/bin/env bash
# Check "Exit codes".
# A checkpoint header with a 5000-digit seed, or with "classes" other
# than 2, is an I/O error (3), an unknown config-file key a config
# error (2). A subject CSV whose header does not name the manifest's
# channels in order is an I/O error (3), and so is one with a NaN
# cell or a byte that is not UTF-8; `psd` on a split of one class is
# a config error (2) and creates no --out. A diverging `train` exits 4,
# creates no --out and prints only its error line; so does one whose
# only batch leaves a non-finite validation loss. An integer setting
# beyond int64 and a cutoff too low to filter with are config errors
# (2) in one stderr line that names the setting, and so are a model,
# a probe epoch, a filter order (once a filter that passed all) and a
# repeats_sine too big for one numpy array; a probe map that
# overflows exits 4 in one line. A sweep in which no point trains
# exits 4 and creates no --out. A manifest whose channel list is
# empty is a config error (2) in one stderr line that names
# 'channels', and creates no --out. The white-noise response is
# exact, so --repeats-noise is no flag (exit 2). A sweep whose test
# partition holds one class has no AUC, so every normalized_auc cell
# of its ablation.csv is empty (it read 1.0).
set -e
seed="$(printf '1%.0s' $(seq 5000))"
printf '{"config": {"classes": 2, "in_channels": 1, "kernel": 1, "out_channels": 1}, "format_version": 1, "seed": %s}\n' "$seed" > "$RUNNER_TEMP/long_seed.bin"
rc=0; eegcnn evaluate --checkpoint "$RUNNER_TEMP/long_seed.bin" --split "$RUNNER_TEMP/split" --out "$RUNNER_TEMP/eval" || rc=$?
test "$rc" -eq 3
printf '{"config": {"classes": 3, "in_channels": 1, "kernel": 1, "out_channels": 1}, "format_version": 1, "seed": 0}\n' > "$RUNNER_TEMP/three_classes.bin"
rc=0; eegcnn evaluate --checkpoint "$RUNNER_TEMP/three_classes.bin" --split "$RUNNER_TEMP/split" --out "$RUNNER_TEMP/eval3" 2> "$RUNNER_TEMP/eval3.err" || rc=$?
test "$rc" -eq 3
grep -q "'config.classes' must be the integer 2, got 3" "$RUNNER_TEMP/eval3.err"
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/three_classes.bin" --out "$RUNNER_TEMP/probe3" 2> "$RUNNER_TEMP/probe3.err" || rc=$?
test "$rc" -eq 3
grep -q "'config.classes' must be the integer 2, got 3" "$RUNNER_TEMP/probe3.err"
echo '{"learning_rat": 0.1}' > "$RUNNER_TEMP/typo.json"
rc=0; eegcnn psd --config "$RUNNER_TEMP/typo.json" --split "$RUNNER_TEMP/split" --out "$RUNNER_TEMP/psd" || rc=$?
test "$rc" -eq 2
python -c "
import json, pathlib, sys
from eegcnn.data import write_subject_csv
from eegcnn.synth import synthetic_dataset
root = pathlib.Path(sys.argv[1])
root.mkdir()
names = ['ch0', 'ch1']
entries = []
for sub in synthetic_dataset(n_subjects=5, channels=2, fs=100.0, n_epochs=1, seed=2):
    write_subject_csv(root / f'{sub.subject_id}.csv', sub, names)
    entries.append({'id': sub.subject_id, 'file': f'{sub.subject_id}.csv', 'label': 'Control'})
for name, channels in (('one_class.json', names), ('reordered.json', names[::-1]),
                       ('no_channels.json', [])):
    manifest = {'fs': 100.0, 'channels': channels, 'subjects': entries}
    (root / name).write_text(json.dumps(manifest))
" "$RUNNER_TEMP/control"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/control/reordered.json" --out "$RUNNER_TEMP/reordered" 2> "$RUNNER_TEMP/reordered.err" || rc=$?
test "$rc" -eq 3
grep -q "header column 0 is 'ch0', the manifest's channel 0 is 'ch1'" "$RUNNER_TEMP/reordered.err"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/control/no_channels.json" --out "$RUNNER_TEMP/no_channels" 2> "$RUNNER_TEMP/no_channels.err" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/no_channels"
test "$(wc -l < "$RUNNER_TEMP/no_channels.err")" -eq 1
grep -q "'channels' must be a non-empty list" "$RUNNER_TEMP/no_channels.err"
eegcnn prepare --manifest "$RUNNER_TEMP/control/one_class.json" --out "$RUNNER_TEMP/one_class"
rc=0; eegcnn psd --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/one_class_psd" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/one_class_psd"
cp -r "$RUNNER_TEMP/control" "$RUNNER_TEMP/nan_cell"
sed -i '3s/^[^,]*/nan/' "$RUNNER_TEMP/nan_cell/S001.csv"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/nan_cell/one_class.json" --out "$RUNNER_TEMP/nan_split" 2> "$RUNNER_TEMP/nan.err" || rc=$?
test "$rc" -eq 3
grep -q "nan_cell/S001.csv: non-finite value nan at row 2, column 0 (ch0)" "$RUNNER_TEMP/nan.err"
test ! -e "$RUNNER_TEMP/nan_split"
cp -r "$RUNNER_TEMP/control" "$RUNNER_TEMP/not_utf8"
printf '\377\n' >> "$RUNNER_TEMP/not_utf8/S002.csv"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/not_utf8/one_class.json" --out "$RUNNER_TEMP/not_utf8_split" 2> "$RUNNER_TEMP/not_utf8.err" || rc=$?
test "$rc" -eq 3
grep -q "not_utf8/S002.csv: not UTF-8 text" "$RUNNER_TEMP/not_utf8.err"
rc=0; eegcnn train --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/diverged" --epochs 1 --in-channels 2 --learning-rate 1e300 2> "$RUNNER_TEMP/diverged.err" || rc=$?
test "$rc" -eq 4
test ! -e "$RUNNER_TEMP/diverged"
test "$(wc -l < "$RUNNER_TEMP/diverged.err")" -eq 1
rc=0; eegcnn train --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/diverged_val" --epochs 1 --in-channels 2 --learning-rate 1e300 --batch-size 1000 2> "$RUNNER_TEMP/diverged_val.err" || rc=$?
test "$rc" -eq 4
test ! -e "$RUNNER_TEMP/diverged_val"
grep -q "non-finite validation loss at epoch 0" "$RUNNER_TEMP/diverged_val.err"
rc=0; eegcnn train --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/huge_kernel" --epochs 1 --in-channels 2 --kernel 99999999999999999999 2> "$RUNNER_TEMP/huge_kernel.err" || rc=$?
test "$rc" -eq 2
test "$(wc -l < "$RUNNER_TEMP/huge_kernel.err")" -eq 1
rc=0; eegcnn train --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/huge_model" --epochs 1 --in-channels 2 --kernel 4611686018427387903 2> "$RUNNER_TEMP/huge_model.err" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/huge_model"
test "$(wc -l < "$RUNNER_TEMP/huge_model.err")" -eq 1
grep -q "in_channels 2, out_channels 59 and kernel 4611686018427387903" "$RUNNER_TEMP/huge_model.err"
rc=0; eegcnn sweep --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/diverged_sweep" --sweep-parameter kernel_size --sweep-values 1,3 --epochs 1 --in-channels 2 --learning-rate 1e300 || rc=$?
test "$rc" -eq 4
test ! -e "$RUNNER_TEMP/diverged_sweep"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/control/one_class.json" --out "$RUNNER_TEMP/low_cutoff" --cutoff-hz 1e-10 2> "$RUNNER_TEMP/low_cutoff.err" || rc=$?
test "$rc" -eq 2
grep -q "cutoff_hz" "$RUNNER_TEMP/low_cutoff.err"
rc=0; eegcnn prepare --manifest "$RUNNER_TEMP/control/one_class.json" --out "$RUNNER_TEMP/huge_order" --filter-order 9223372036854775807 2> "$RUNNER_TEMP/huge_order.err" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/huge_order"
test "$(wc -l < "$RUNNER_TEMP/huge_order.err")" -eq 1
grep -q "filter_order 9223372036854775807 is too high" "$RUNNER_TEMP/huge_order.err"
eegcnn train --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/one_class_model" --epochs 1 --in-channels 2
eegcnn sweep --split "$RUNNER_TEMP/one_class" --out "$RUNNER_TEMP/one_class_sweep" --sweep-parameter kernel_size --sweep-values 1,3 --epochs 1 --in-channels 2 --out-channels 2 --kernel 3
python -c "
import csv, sys
rows = list(csv.DictReader(open(sys.argv[1])))
assert len(rows) == 2 and all(row['normalized_auc'] == '' for row in rows), rows
" "$RUNNER_TEMP/one_class_sweep/ablation.csv"
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/one_class_model/checkpoint.bin" --out "$RUNNER_TEMP/overflow_probe" --fs 100 --epoch-len 500 --repeats-sine 1 --amplitude 1e308 2> "$RUNNER_TEMP/overflow_probe.err" || rc=$?
test "$rc" -eq 4
test "$(wc -l < "$RUNNER_TEMP/overflow_probe.err")" -eq 1
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/one_class_model/checkpoint.bin" --out "$RUNNER_TEMP/long_probe" --fs 100 --epoch-len 4611686018427387904 --repeats-sine 1 2> "$RUNNER_TEMP/long_probe.err" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/long_probe"
test "$(wc -l < "$RUNNER_TEMP/long_probe.err")" -eq 1
grep -q "epoch_len 4611686018427387904 is too long" "$RUNNER_TEMP/long_probe.err"
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/one_class_model/checkpoint.bin" --out "$RUNNER_TEMP/many_repeats_probe" --fs 100 --epoch-len 500 --repeats-sine 4611686018427387904 2> "$RUNNER_TEMP/many_repeats_probe.err" || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/many_repeats_probe"
test "$(wc -l < "$RUNNER_TEMP/many_repeats_probe.err")" -eq 1
grep -q "repeats_sine 4611686018427387904 is too large" "$RUNNER_TEMP/many_repeats_probe.err"
rc=0; eegcnn probe --checkpoint "$RUNNER_TEMP/one_class_model/checkpoint.bin" --out "$RUNNER_TEMP/noise_repeats_probe" --fs 100 --epoch-len 500 --repeats-sine 1 --repeats-noise 1 || rc=$?
test "$rc" -eq 2
test ! -e "$RUNNER_TEMP/noise_repeats_probe"
