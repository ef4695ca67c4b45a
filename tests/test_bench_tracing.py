"""The benchmark's tracer patches library names by string; a refactor that
drops one must fail here rather than only in a traced benchmark run."""
import os
import subprocess
import sys
from pathlib import Path

import ineqif

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(ineqif.__file__).resolve().parent.parent


def test_tracer_installs_on_every_traced_name():
    # a separate interpreter: install() patches the modules it is given
    code = ("import ineqif, ineqif.cli, tracing\n"
            "tracing.install(tracing.Tracer(), ineqif)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(BENCH), str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
