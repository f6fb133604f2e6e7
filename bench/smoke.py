"""Smoke test of the benchmark at tiny shapes (not part of the unit-test suite).

    python3 bench/smoke.py

For every workload it runs ``bench/run.py --smoke`` once untraced and twice
traced with one seed, and checks that:

- ``BENCHMARK.json`` keeps its schema (keys, names, units, bounds);
- the last output line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, with no failed operation (a defect of the program
  that fails an operation therefore fails the smoke test too);
- every declared metric is emitted with its declared unit and a finite value,
  end-to-end metrics untraced and per-layer metrics traced;
- call counts, conv flops, im2col bytes and CSV bytes repeat exactly between
  the two traced runs of the same seed;
- in a directory holding only ``BENCHMARK.json`` and ``bench/``, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from tracing import REPEATING  # bench/tracing.py, next to this script

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 5
TIMEOUT_S = 180


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = set()
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        if not NAME.fullmatch(m["name"]) or m["name"] in names:
            errors.append(f"bad or repeated name {m['name']!r}")
        names.add(m["name"])
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: entry")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']}: entry")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m['name']}: entry")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"{m['name']}: unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        errors.append("setup_s missing or not seconds/lower")
    return errors


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_result(proc: subprocess.CompletedProcess, declared: list[dict]) -> tuple[dict, list]:
    if proc.returncode != 0:
        return {}, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or isinstance(attempted, bool) or attempted < 1:
        errors.append(f"attempted {attempted!r}")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            errors.append(f"{name}: {m}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return metrics, errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = [f"spec: {e}" for e in check_spec(spec)]
    for workload in (w["name"] for w in spec["workloads"]):
        metrics, errors = check_result(run(workload, 0), spec["end_to_end"])
        errors += [f"{k} is not positive" for k, m in metrics.items() if m["value"] <= 0]
        traced = []
        for _ in range(2):
            metrics, more = check_result(run(workload, 1), spec["per_layer"])
            errors += more
            traced.append(metrics)
        if all(traced):
            for key in REPEATING:
                a, b = (t[key]["value"] for t in traced)
                if a != b:
                    errors.append(f"{key} differs between runs of one seed: {a} vs {b}")
        failures += [f"{workload}: {e}" for e in errors]
        print(f"{'PASS' if not errors else 'FAIL'} {workload}")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        failures.append(f"bare directory: exit {proc.returncode}, last line {last[0][:80]!r}")
    print(f"{'PASS' if proc.returncode != 0 else 'FAIL'} bare directory exits {proc.returncode}")

    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
