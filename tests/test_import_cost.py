"""scipy is imported on first use only: its import is most of the start-up
time of every CLI command, and only lognormal draws, the QSR's default grid
on a lognormal model and Singh-Maddala partial means and log moments need
`scipy.special`; `verify` needs it on no other model.
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


# ge:2's variance needs E X^4, which diverges on pareto:3,1: exit code 2
VARIANCE_EXIT_CODES = {"pareto:3,1": 2}


@pytest.mark.parametrize("spec,loads_scipy", [
    ("exp:1", False),
    ("uniform:0,1", False),
    ("lognormal:0,0.5", False),
    ("pareto:3,1", False),
    # the control: Singh-Maddala partial means need betainc
    ("sm:2,1,3", True),
])
def test_measure_and_variance_load_scipy_only_for_special_functions(
        spec, loads_scipy):
    variance_rc = VARIANCE_EXIT_CODES.get(spec, 0)
    code = ("import contextlib, io, sys\n"
            "from ineqif.cli import main\n"
            f"for command, want in (('measure', 0), ('variance', {variance_rc})):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        rc = main([command, '--ids', 'all', '--dist', {spec!r}])\n"
            "    assert rc == want, (command, rc)")
    assert _scipy_loaded_after(code) is loads_scipy


@pytest.mark.parametrize("spec", ["exp:1", "uniform:0,1", "pareto:3,1"])
def test_verify_leaves_scipy_unloaded(spec):
    # the complex-step oracle and the QSR's mixture quantiles need no scipy
    # off the lognormal, whose QSR grid reads ndtri
    code = ("import contextlib, io, sys\n"
            "from ineqif.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main(['verify', '--ids', 'all', '--dist', {spec!r}])\n"
            "assert rc == 0, rc")
    assert not _scipy_loaded_after(code)


def test_lorenz_on_a_lognormal_leaves_scipy_unloaded():
    # the Lorenz curve reads the partial mean, not a quadrature of Q
    code = ("import sys\n"
            "from ineqif import make_distribution\n"
            "F = make_distribution('lognormal', 0.0, 0.5)\n"
            "assert 0.0 < F.lorenz(0.3) < 0.3")
    assert not _scipy_loaded_after(code)
