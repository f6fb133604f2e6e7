#!/usr/bin/env bash
# Check "Console script"; CI also runs it as a step, on the installed
# entry point.
set -e
eegcnn --help
for command in prepare train evaluate probe sweep psd; do
  eegcnn "$command" --help || exit 1
done
