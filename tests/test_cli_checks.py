"""The command-line checks, one script per check under ``tests/cli_checks/``,
numbered in the order they run. CI runs them here, in its tier-1 step, and
the "Console script" check once more as a step of its own, on the installed
entry point, which the shim below bypasses.

Each test runs its script with bash, after every earlier script has run once,
all in one ``RUNNER_TEMP`` directory as in CI, where later steps use the
splits and checkpoints that earlier ones write. ``eegcnn`` on ``PATH`` is a
shim that runs ``eegcnn.cli:main`` from this checkout's ``src/`` in this
interpreter, and so is ``python``. A script that calls a tool the machine
lacks, or follows one that does, is skipped with the tool's name.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ROOT / "tests" / "cli_checks"
SCRIPTS = sorted(p.name for p in CHECKS.glob("*.sh"))
# the programs outside Python that the scripts call
TOOLS = ("bash", "taskset", "cmp", "timeout", "sed", "grep", "wc", "seq")
# importing eegcnn sets these in this process when none is set; CI's runner sets none
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _missing_tool(scripts: list[str]) -> str | None:
    for name in scripts:
        text = (CHECKS / name).read_text()
        for tool in TOOLS:
            if re.search(rf"(^|[\s;|(]){tool}\b", text, re.MULTILINE) and not shutil.which(tool):
                return tool
    return None


@pytest.fixture(scope="module")
def run_check(tmp_path_factory):
    """script name -> its finished process, run once, after every earlier script."""
    runner_temp = tmp_path_factory.mktemp("runner_temp")
    shims = tmp_path_factory.mktemp("bin")
    for name, argv in (("python", '"$@"'),
                       ("eegcnn", '-c "import sys; from eegcnn.cli import main; '
                                  'sys.exit(main())" "$@"')):
        (shims / name).write_text(f'#!/bin/sh\nexec "{sys.executable}" {argv}\n')
        (shims / name).chmod(0o755)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(RUNNER_TEMP=str(runner_temp),
               PATH=os.pathsep.join([str(shims), env.get("PATH", os.defpath)]),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        env.get("PYTHONPATH")])))
    done = {}

    def run(script: str) -> subprocess.CompletedProcess:
        for name in SCRIPTS[:SCRIPTS.index(script) + 1]:
            if name not in done:
                done[name] = subprocess.run(["bash", "-x", str(CHECKS / name)], cwd=ROOT,
                                            env=env, capture_output=True, text=True,
                                            timeout=600)
        return done[script]

    return run


def test_workflow_runs_the_console_script_check_on_the_installed_entry_point():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert re.findall(r"run: bash tests/cli_checks/(\S+)", workflow) == [SCRIPTS[0]]
    assert SCRIPTS[0] == "01_console_script.sh"


@pytest.mark.parametrize("script", SCRIPTS)
def test_cli_check(run_check, script):
    tool = _missing_tool(SCRIPTS[:SCRIPTS.index(script) + 1])
    if tool is not None:
        pytest.skip(f"needs {tool}, which this machine lacks")
    done = run_check(script)
    assert done.returncode == 0, (
        f"{script} exited {done.returncode}\n--- stdout (end)\n{done.stdout[-2000:]}"
        f"\n--- stderr (end; bash -x traces each command)\n{done.stderr[-4000:]}")
