"""Op lists of the three workloads, generated from a seed.

An op is a JSON-ready dict. Its model is a CLI spec string, so the program
builds every model through `cli.parse_distribution`, as the CLI does. The
composition of every list (kinds, ids, op kinds, file sizes) is fixed; the
seed draws the shape and scale parameters and the sample data. Ops whose
inputs do not depend on the seed are marked `"fixed": True`: they hold every
op that fails today, so the failed share is the same for every seed, and the
oracle's QSR curves, whose oracle fails on some seeded models.

This module imports nothing from ineqif.
"""
from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

MEASURE_IDS = ("ge:2", "theil", "mld", "atkinson:0.5", "champernowne",
               "kolm:1", "gini", "qsr")
KINDS = ("exp", "pareto", "lognormal", "sm", "uniform")
WORKLOADS = ("oracle", "model", "sample")

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache"

# Shape ranges, chosen away from the moment boundaries where finite values
# exist but the program's quadrature raises NonConvergence (see README).
PARETO_SHAPES = ((3.0, 3.8), (5.0, 6.5))
SM_A, SM_Q = (2.0, 3.5), (2.5, 3.5)
LOGNORMAL_SIGMA = (0.3, 1.0)
UNIFORM_LO_OVER_HI = (0.0, 0.6)

# Scale factors of seeded `model` ops: log-uniform over these decades, on a
# base mean in [0.5, 2]. Outside them the program fails on some shapes and
# not others; fixed ops cover smaller and larger scales (see README).
MODEL_DECADES = (-2.0, 2.0)
# Kolm is not scale invariant: keep a*mu where its formula keeps precision.
KOLM_DECADES = (-0.3, 0.5)


def _fmt(v: float) -> str:
    return format(v, ".6g")


# Monte Carlo studies need T_n close to normal at n = 1000: for GE(2) that
# takes a finite E X^8, and a lognormal sigma near 1 gives a ratio far
# outside any chi-square band. Their models use these lighter shapes.
MC_LOGNORMAL_SIGMA = (0.3, 0.6)
MC_SM_A = MC_SM_Q = (3.0, 3.5)


def spec_with_mean(kind: str, mu: float, rng: np.random.Generator,
                   light: bool = False) -> str:
    """A model of `kind` with seeded shape, scaled to mean about mu; `light`
    selects the thin-tailed shapes of the Monte Carlo studies."""
    if kind == "exp":
        return f"exp:{_fmt(1.0 / mu)}"
    if kind == "pareto":
        lo, hi = PARETO_SHAPES[int(rng.integers(2))]
        alpha = rng.uniform(lo, hi)
        return f"pareto:{_fmt(alpha)},{_fmt(mu * (alpha - 1.0) / alpha)}"
    if kind == "lognormal":
        s = rng.uniform(*(MC_LOGNORMAL_SIGMA if light else LOGNORMAL_SIGMA))
        return f"lognormal:{_fmt(math.log(mu) - 0.5 * s * s)},{_fmt(s)}"
    if kind == "sm":
        a = rng.uniform(*(MC_SM_A if light else SM_A))
        q = rng.uniform(*(MC_SM_Q if light else SM_Q))
        unit_mean = math.exp(math.lgamma(1 + 1 / a) + math.lgamma(q - 1 / a)
                             - math.lgamma(q))
        return f"sm:{_fmt(a)},{_fmt(mu / unit_mean)},{_fmt(q)}"
    if kind == "uniform":
        r = rng.uniform(*UNIFORM_LO_OVER_HI)
        hi = 2.0 * mu / (1.0 + r)
        return f"uniform:{_fmt(r * hi)},{_fmt(hi)}"
    raise ValueError(kind)


def _log_uniform(rng, lo_decade, hi_decade):
    return 10.0 ** rng.uniform(lo_decade, hi_decade)


# ---------------------------------------------------------------------------
# oracle: one IF curve with the Gateaux oracle per op, unit scale
# ---------------------------------------------------------------------------

ORACLE_REPS = 5  # 5 reps x 5 kinds x 8 ids = 200 ops, 25 of them QSR
# QSR curves take their models from this constant seed. On some seeded
# models the QSR oracle raises NoisyLimit at one grid point (README), a
# fault that bites on some seeds only.
ORACLE_QSR_SEED = 20180721


def oracle_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    qsr_rng = np.random.default_rng(ORACLE_QSR_SEED)
    ops = []
    for _ in range(ORACLE_REPS):
        for kind in KINDS:
            for mid in MEASURE_IDS:
                fixed = mid == "qsr"
                r = qsr_rng if fixed else rng
                mu = _log_uniform(r, math.log10(0.5), math.log10(5.0))
                ops.append({"op": "curve", "id": mid,
                            "dist": spec_with_mean(kind, mu, r), "fixed": fixed})
    return ops


# ---------------------------------------------------------------------------
# model: T.evaluate(F) or asymptotic_variance(T, F) on a fresh model
# ---------------------------------------------------------------------------

MODEL_REPS = 4  # 4 reps x 5 kinds x 8 ids x 2 op kinds = 320 seeded ops

# Every kind at mu = 5e4 (incomes in dollars), all ids, both op kinds.
DOLLAR_SPECS = ("exp:2e-05", "pareto:3,33333.3", "lognormal:10.7,0.5",
                "sm:2,84900,3", "uniform:0,100000")

# Inputs named in the known faults, each with the op that shows it.
NAMED_FAULT_OPS = (
    ("measure", "gini", "lognormal:10,0.5"),
    ("measure", "theil", "lognormal:10,0.5"),
    ("variance", "theil", "pareto:3,1e+06"),
    ("variance", "mld", "pareto:3,1e+06"),
    ("variance", "atkinson:0.5", "pareto:3,1e+06"),
    ("variance", "champernowne", "pareto:3,1e+06"),
    ("variance", "theil", "pareto:3,50000"),
    ("measure", "gini", "sm:2,1e+06,3"),
    ("measure", "gini", "lognormal:-7.65,0.3"),
    ("measure", "theil", "lognormal:-7.65,0.3"),
    ("measure", "champernowne", "lognormal:-7.65,0.3"),
    ("variance", "theil", "lognormal:-7.65,0.3"),
    ("variance", "gini", "lognormal:-7.65,0.3"),
    ("measure", "kolm:1", "exp:0.0013"),
    ("variance", "kolm:1", "sm:2,1000,3"),
)


def model_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for _ in range(MODEL_REPS):
        for kind in KINDS:
            for mid in MEASURE_IDS:
                for op in ("measure", "variance"):
                    decades = KOLM_DECADES if mid.startswith("kolm") else MODEL_DECADES
                    mu = _log_uniform(rng, math.log10(0.5), math.log10(2.0)) \
                        * _log_uniform(rng, *decades)
                    ops.append({"op": op, "id": mid,
                                "dist": spec_with_mean(kind, mu, rng)})
    for spec in DOLLAR_SPECS:
        for mid in MEASURE_IDS:
            for op in ("measure", "variance"):
                ops.append({"op": op, "id": mid, "dist": spec, "fixed": True})
    for op, mid, spec in NAMED_FAULT_OPS:
        ops.append({"op": op, "id": mid, "dist": spec, "fixed": True})
    return ops


# ---------------------------------------------------------------------------
# sample: CSV ingest, plug-in measures, Monte Carlo variance studies
# ---------------------------------------------------------------------------

# (file name, rows, model at mean 1, income unit). Dollars are mu = 5e4 and
# printed to the cent; unit-scale incomes to nine significant digits.
SAMPLE_FILES = (
    ("unit-exp-1e4.csv", 10_000, "exp", "unit"),
    ("unit-lognormal-1e5.csv", 100_000, "lognormal", "unit"),
    ("unit-sm-1e6.csv", 1_000_000, "sm", "unit"),
    ("dollars-pareto-3e4.csv", 30_000, "pareto", "dollars"),
    ("dollars-lognormal-3e5.csv", 300_000, "lognormal", "dollars"),
)
# Drawn with a constant seed: the one file whose inputs never change. Kolm
# runs on dollars only here, because it fails on every sample in dollars.
FIXED_FILE = ("fixed-dollars-lognormal-1e4.csv", 10_000, "lognormal", "dollars")
FIXED_FILE_SEED = 20180720
DOLLARS = 5e4

MC_KINDS = ("exp", "lognormal", "sm", "uniform")  # light tails only
MC_REPS_PER_ID = 9  # 9 x 8 ids = 72 studies: the median op is a study
MC_N, MC_REPLICAS = 1000, 50


def _draw_incomes(kind: str, n: int, unit: str, rng) -> np.ndarray:
    """Inverse-transform draws from a seeded model of `kind` at mean 1."""
    spec = spec_with_mean(kind, 1.0, rng)
    name, _, rest = spec.partition(":")
    p = [float(t) for t in rest.split(",")]
    u = rng.random(n)
    if name == "exp":
        x = -np.log1p(-u) / p[0]
    elif name == "pareto":
        x = p[1] * (1.0 - u) ** (-1.0 / p[0])
    elif name == "lognormal":
        from scipy.special import ndtri
        x = np.exp(p[0] + p[1] * ndtri(u))
    elif name == "sm":
        a, b, q = p
        x = b * ((1.0 - u) ** (-1.0 / q) - 1.0) ** (1.0 / a)
    else:
        x = p[0] + u * (p[1] - p[0])
    if unit == "dollars":
        return np.maximum(np.round(x * DOLLARS, 2), 0.01)
    return x


def write_inputs(seed: int, data_dir: Path) -> None:
    """Write the CSV inputs of the `sample` workload (header `income`)."""
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    files = [(f, rng) for f in SAMPLE_FILES]
    files.append((FIXED_FILE, np.random.default_rng(FIXED_FILE_SEED)))
    for (name, n, kind, unit), frng in files:
        x = _draw_incomes(kind, n, unit, frng)
        fmt = "{:.2f}" if unit == "dollars" else "{:.9g}"
        text = "income\n" + "\n".join(map(fmt.format, x.tolist())) + "\n"
        tmp = data_dir / (name + ".tmp")
        tmp.write_text(text)
        tmp.replace(data_dir / name)


def sample_ops(seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for name, _, _, unit in SAMPLE_FILES + (FIXED_FILE,):
        fixed = name == FIXED_FILE[0]
        ops.append({"op": "ingest", "file": name, "fixed": fixed})
        for mid in MEASURE_IDS:
            if mid.startswith("kolm") and unit == "dollars" and not fixed:
                continue
            ops.append({"op": "plugin", "id": mid, "file": name, "fixed": fixed})
    for r in range(MC_REPS_PER_ID):
        for i, mid in enumerate(MEASURE_IDS):
            kind = MC_KINDS[(r + i) % len(MC_KINDS)]
            mu = _log_uniform(rng, math.log10(0.5), math.log10(2.0))
            ops.append({"op": "mc", "id": mid,
                        "dist": spec_with_mean(kind, mu, rng, light=True),
                        "n": MC_N, "reps": MC_REPLICAS,
                        "rng_seed": int(rng.integers(2 ** 31))})
    return ops


def generate(workload: str, seed: int) -> list:
    if workload == "oracle":
        return oracle_ops(seed)
    if workload == "model":
        return model_ops(seed)
    if workload == "sample":
        return sample_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")


def code_version() -> str:
    """Hash of the files that decide op lists, inputs and references."""
    h = hashlib.sha256()
    for name in ("oplists.py", "reference.py"):
        h.update((BENCH_DIR / name).read_bytes())
    return h.hexdigest()[:12]


def cache_paths(workload: str, seed: int):
    """(reference file, sample input directory) of one workload and seed."""
    version = code_version()
    return (CACHE_DIR / f"{workload}-{seed}-{version}.json",
            CACHE_DIR / f"inputs-{seed}-{version}")
