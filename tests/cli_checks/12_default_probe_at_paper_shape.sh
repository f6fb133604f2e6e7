#!/usr/bin/env bash
# Check "Default probe at paper shape".
# Guards both closed forms: on a 2-vCPU host this takes about 1 s with
# the exact white-noise response and the arc sums, took about 4 s
# with a 300-draw white-noise loop, 8-17 s with a dense ReLU per tone,
# and about 4.5 min with one forward per probe.
set -e
python -c "from eegcnn.checkpoint import save_checkpoint; from eegcnn.model import init_params; save_checkpoint('$RUNNER_TEMP/paper.bin', init_params(0), 0)"
timeout 30 eegcnn probe --checkpoint "$RUNNER_TEMP/paper.bin" --out "$RUNNER_TEMP/probe"
test -f "$RUNNER_TEMP/probe/sensitivity.csv"
test "$(ls "$RUNNER_TEMP"/probe/filter_response_ch*.csv | wc -l)" -eq 59
