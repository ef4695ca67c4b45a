"""scipy is imported on first use only: its import is most of the start-up
time of every CLI command, and only lognormal draws, the QSR's default grid
on a lognormal model and Singh-Maddala partial means need `scipy.special`.
Each check runs in a fresh interpreter, because this test session has scipy
loaded already."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ineqif

SRC = Path(ineqif.__file__).resolve().parent.parent


def _scipy_loaded_after(code: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_importing_the_cli_leaves_scipy_unloaded():
    assert not _scipy_loaded_after("import sys, ineqif.cli")


@pytest.mark.parametrize("spec,loads_scipy", [
    ("exp:1", False),
    ("uniform:0,1", False),
    ("lognormal:0,0.5", False),
    # the control: Singh-Maddala partial means need betainc
    ("sm:2,1,3", True),
])
def test_measure_and_variance_load_scipy_only_for_special_functions(
        spec, loads_scipy):
    code = ("import contextlib, io, sys\n"
            "from ineqif.cli import main\n"
            "for command in ('measure', 'variance'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        rc = main([command, '--ids', 'all', '--dist', {spec!r}])\n"
            "    assert rc == 0, (command, rc)")
    assert _scipy_loaded_after(code) is loads_scipy
