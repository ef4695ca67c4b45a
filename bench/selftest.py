"""Self-tests of the benchmark: references, op lists and metric names.

    python3 bench/selftest.py          # about a minute; no ineqif import
    python3 bench/selftest.py --runs   # also runs each workload briefly

Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import oplists  # noqa: E402
import reference as R  # noqa: E402

FAILURES = []


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{' ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(label)


def near(a, b, rel=1e-20):
    return abs(a - b) <= rel * max(1, abs(b))


def textbook_values():
    gamma = mp.euler
    F = R.Model("exp:1")
    quad_theil = F.quad(lambda x: x * mp.log(x)) / F.mean() - mp.log(F.mean())
    quad_mld = mp.log(F.mean()) - F.quad(mp.log)
    check("exponential Gini = 1/2", near(F.gini_by_quad(), mp.mpf(1) / 2))
    check("exponential Theil = 1 - gamma",
          near(R.measure("theil").value(F), 1 - gamma) and near(quad_theil, 1 - gamma))
    check("exponential MLD = gamma",
          near(R.measure("mld").value(F), gamma) and near(quad_mld, gamma))
    for sigma in ("0.5", "0.8"):
        F = R.Model(f"lognormal:0.3,{sigma}")
        half_s2 = F.s ** 2 / 2
        check(f"lognormal(sigma={sigma}) Theil = MLD = sigma^2/2",
              near(R.measure("theil").value(F), half_s2)
              and near(R.measure("mld").value(F), half_s2)
              and near(F.quad(lambda x: x * mp.log(x)) / F.mean() - mp.log(F.mean()),
                       half_s2))
        check(f"lognormal(sigma={sigma}) Gini = 2 Phi(sigma/sqrt 2) - 1",
              near(F.gini_by_quad(), 2 * mp.ncdf(F.s / mp.sqrt(2)) - 1))
    for alpha in ("2.5", "4"):
        F = R.Model(f"pareto:{alpha},1.5")
        check(f"Pareto(alpha={alpha}) Gini = 1/(2 alpha - 1)",
              near(F.gini_by_quad(), 1 / (2 * F.alpha - 1)))
    F = R.Model("sm:2.5,1.3,2.7")
    closed_mean = F.mean()
    check("Singh-Maddala mean: quad = Beta-function closed form",
          near(F.quad(lambda x: x), closed_mean))
    # Asymptotic variances derived by hand on Exp(1).
    F = R.Model("exp:1")
    check("Exp(1) GE(2) variance = 1", near(R.asymptotic_variance("ge:2", F), 1, 1e-15))
    check("Exp(1) MLD variance = pi^2/6 - 1",
          near(R.asymptotic_variance("mld", F), mp.pi ** 2 / 6 - 1, 1e-15))
    check("Pareto(3) GE(2) variance is infinite",
          R.asymptotic_variance("ge:2", R.Model("pareto:3,1")) == mp.inf)


def influence_routes():
    """Chain-rule influence functions equal the derivative along the
    contamination path, for every measure on every kind."""
    specs = ("exp:0.7", "pareto:3.5,0.8", "lognormal:0.1,0.6", "sm:2.5,1.2,2.8",
             "uniform:0.3,2.1")
    worst = 0.0
    for spec in specs:
        F = R.Model(spec)
        for mid in oplists.MEASURE_IDS:
            T = R.measure(mid)
            fn = T.influence(F)
            for z in R.default_grid(F, mid)[1::6]:
                a, b = fn(z), T.influence_by_path(F, z)
                worst = max(worst, float(abs(a - b) / max(1, abs(b))))
    check("IF by chain rule = IF along the mixture path", worst < 1e-8,
          f"(worst relative gap {worst:.1e})")
    F = R.Model("exp:1")
    check("IF integrates to 0 under F (centering)",
          all(abs(F.quad(R.measure(mid).influence(F))) < 1e-20
              for mid in ("theil", "gini", "kolm:1")))


def plugin_references():
    rng = np.random.default_rng(7)
    xs = np.sort(rng.lognormal(0.0, 0.7, 299))
    mx = [mp.mpf(float(v)) for v in xs]
    n = len(mx)
    mu = mp.fsum(mx) / n
    want = {
        "theil": mp.fsum(x / mu * mp.log(x / mu) for x in mx) / n,
        "mld": -mp.fsum(mp.log(x / mu) for x in mx) / n,
        "ge:2": (mp.fsum((x / mu) ** 2 for x in mx) / n - 1) / 2,
        "kolm:1": mp.log(mp.fsum(mp.exp(-(x - mu)) for x in mx) / n),
        "gini": mp.fsum(abs(x - y) for x in mx for y in mx) / (2 * n * n * mu),
    }
    worst = max(abs(R.plugin_reference(mid, xs) - float(v)) / abs(float(v))
                for mid, v in want.items())
    check("plug-in references = 30-digit sums (Gini by all pairs)", worst < 1e-12,
          f"(worst {worst:.1e})")
    dollars = np.round(rng.lognormal(10.7, 0.5, 500), 2)
    kolm = R.plugin_reference("kolm:1", np.sort(dollars))
    check("Kolm plug-in reference stays finite in dollars", math.isfinite(kolm))


def op_lists():
    for w in oplists.WORKLOADS:
        a, b = oplists.generate(w, 11), oplists.generate(w, 11)
        c = oplists.generate(w, 12)
        check(f"{w}: one seed gives the same op list twice", a == b)
        check(f"{w}: another seed changes the seeded ops", a != c)
        shape = lambda ops: [(o["op"], o.get("id"), o.get("fixed", False)) for o in ops]
        check(f"{w}: composition does not depend on the seed", shape(a) == shape(c))
        fixed = lambda ops: [o for o in ops if o.get("fixed")]
        check(f"{w}: fixed ops do not depend on the seed", fixed(a) == fixed(c))


def metric_names():
    import tracing
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check("end-to-end names match BENCHMARK.json",
          [n for n, _ in END_TO_END] == [m["name"] for m in spec["end_to_end"]])
    check("per-layer names match BENCHMARK.json",
          [n for n, _, _ in tracing.PER_LAYER] == [m["name"] for m in spec["per_layer"]])
    check("workloads match BENCHMARK.json",
          list(oplists.WORKLOADS) == [w["name"] for w in spec["workloads"]])


def printed_names():
    """Run each workload briefly and compare the printed metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in oplists.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            printed = list(json.loads(last).get("metrics", {}))
            check(f"{w} --trace {trace}: printed names = BENCHMARK.json {key}",
                  proc.returncode == 0
                  and printed == [m["name"] for m in spec[key]])


def main(argv) -> int:
    textbook_values()
    influence_routes()
    plugin_references()
    op_lists()
    metric_names()
    if "--runs" in argv:
        printed_names()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
