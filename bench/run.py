"""Benchmark of ineqif: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload oracle|model|sample --seed N \
        --seconds S --trace 0|1 [--record runs.jsonl]

Builds (or reads from bench/.cache) the seeded op list and its independent
references, times the fresh-interpreter import of `ineqif.cli`, runs an
untimed warm-up, then makes whole passes over the op list until the run
time is spent. Every op's output is checked against its reference outside
the timed region. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""
from __future__ import annotations

import os

# One thread: pin BLAS and OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oplists
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_INTERPRETERS = 7     # fresh interpreters timed per run; median kept
IMPORTTIME_INTERPRETERS = 3
MIN_PASSES = 4             # whole passes per run, even past --seconds
TAIL_BEYOND = 10           # passing ops beyond the tail percentile

# Check tolerances; README.md derives each from the method's error targets.
VALUE_RTOL, VALUE_ATOL = 1e-6, 1e-10   # measures, variances, closed-form IFs
GRID_RTOL = 1e-9                       # default grid vs reference quantiles
ORACLE_ATOL, ORACLE_RTOL = 1e-5, 1e-4  # the `verify` tolerance
PLUGIN_RTOL, PLUGIN_ATOL = 1e-9, 1e-12

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Set-up time and import profile (fresh interpreters)
# ---------------------------------------------------------------------------

_IMPORT_PROBE = ("import time, sys; import ineqif.cli; "
                 "sys.stdout.write(repr(time.perf_counter()))")


def _fresh_import(extra_flags=()) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *extra_flags, "-c", _IMPORT_PROBE],
                          cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import ineqif.cli failed:\n{proc.stderr}")
    return proc


def measure_setup() -> float:
    """Median seconds from interpreter start until `import ineqif.cli`
    returns; time.perf_counter reads the same monotonic clock in both
    processes."""
    _fresh_import()  # untimed: byte-compiles and warms the file cache
    samples = []
    for _ in range(SETUP_INTERPRETERS):
        start = time.perf_counter()
        samples.append(float(_fresh_import().stdout) - start)
    return statistics.median(samples)


def import_profile() -> dict:
    """Self import time per package from `python -X importtime`, in ms."""
    runs = []
    for _ in range(IMPORTTIME_INTERPRETERS):
        totals = {"numpy": 0.0, "scipy": 0.0, "ineqif": 0.0}
        for line in _fresh_import(("-X", "importtime")).stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = [f.strip() for f in line[12:].split("|")]
            if not self_us.isdigit():
                continue
            top = module.split(".")[0]
            if top in totals:
                totals[top] += int(self_us) / 1e3
        runs.append(totals)
    return {f"setup.import.{k}_ms": statistics.median(r[k] for r in runs)
            for k in ("numpy", "scipy", "ineqif")}


# ---------------------------------------------------------------------------
# Ops and checks
# ---------------------------------------------------------------------------


def load_references(workload: str, seed: int):
    ref_path, data_dir = oplists.cache_paths(workload, seed)
    if not ref_path.is_file():
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "reference.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=dict(os.environ), capture_output=True, text=True,
            timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"reference build failed:\n{proc.stderr}")
    blob = json.loads(ref_path.read_text())
    return blob["ops"], blob["refs"], data_dir


class Runner:
    """Runs one op against ineqif's public functions and checks it."""

    def __init__(self, ineqif, data_dir: Path):
        self.q = ineqif
        self.data_dir = data_dir
        self.samples = {}

    def load_samples(self, ops):
        """Ingest each input file once, untimed, for the plug-in ops."""
        for op in ops:
            if op["op"] == "plugin" and op["file"] not in self.samples:
                path = str(self.data_dir / op["file"])
                self.samples[op["file"]] = self.q.cli.ingest_csv(path).values

    def prepare(self, op):
        """Untimed per-op input: a fresh Empirical model for plug-in ops."""
        if op["op"] == "plugin":
            return self.q.distributions.Empirical(self.samples[op["file"]])
        return None

    def run(self, op, prepared):
        q, kind = self.q, op["op"]
        if kind == "curve":
            F = q.cli.parse_distribution(op["dist"])
            return q.influence.if_curve(op["id"], F,
                                        q.influence.default_grid(F, op["id"]),
                                        with_oracle=True)
        if kind == "measure":
            F = q.cli.parse_distribution(op["dist"])
            return q.measures.parse_measure_id(op["id"]).evaluate(F)
        if kind == "variance":
            F = q.cli.parse_distribution(op["dist"])
            return q.influence.asymptotic_variance(
                q.measures.parse_measure_id(op["id"]), F)
        if kind == "ingest":
            return q.cli.ingest_csv(str(self.data_dir / op["file"]))
        if kind == "plugin":
            return q.measures.parse_measure_id(op["id"]).evaluate(prepared)
        if kind == "mc":
            F = q.cli.parse_distribution(op["dist"])
            T = q.measures.parse_measure_id(op["id"])
            return q.estimation.mc_variance_study(
                T, F, op["n"], op["reps"], q.estimation.RngStream(op["rng_seed"]))
        raise BenchError(f"unknown op {kind!r}")

    def check(self, op, ref, out, exc) -> bool:
        kind = op["op"]
        if kind == "variance" and math.isinf(ref["value"]):
            # divergent integral: only a typed library error is right
            return isinstance(exc, self.q.errors.IneqError)
        if exc is not None:
            return False
        if kind == "curve":
            return _check_curve(out, ref)
        if kind in ("measure", "variance"):
            return _close(out, ref["value"], VALUE_RTOL, VALUE_ATOL)
        if kind == "plugin":
            return _close(out, ref["value"], PLUGIN_RTOL, PLUGIN_ATOL)
        if kind == "ingest":
            values = out.values
            return (values.size == ref["n"] and values.dtype.str == "<f8"
                    and hashlib.sha256(values.tobytes()).hexdigest() == ref["sha256"])
        if kind == "mc":
            lo, hi = ref["ratio_band"]
            return (out.n == op["n"] and out.reps == op["reps"]
                    and not out.degenerate
                    and _close(out.if_variance, ref["if_variance"],
                               VALUE_RTOL, VALUE_ATOL)
                    and lo <= out.ratio <= hi)
        return False


def _close(value, ref, rtol, atol) -> bool:
    value = float(value)
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def _check_curve(curve, ref) -> bool:
    grid, want = ref["grid"], ref["if"]
    if curve.point_errors or len(curve.grid) != len(grid):
        return False
    # A closed form combines moments of the size of the curve, so its error
    # scales with the largest |IF| on the grid, not with IF(z) near a root.
    scale = max(abs(w) for w in want)
    for z, z_ref, closed, oracle, w in zip(curve.grid, grid, curve.closed_form,
                                           curve.oracle, want):
        if not _close(z, z_ref, GRID_RTOL, 0.0):
            return False
        if not (math.isfinite(closed)
                and abs(closed - w) <= VALUE_ATOL + VALUE_RTOL * scale):
            return False
        if not (math.isfinite(oracle)
                and abs(oracle - w) <= max(ORACLE_ATOL, ORACLE_RTOL * abs(w))):
            return False
    return True


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


def timed_passes(runner, ops, refs, seconds, tracer=None, min_passes=MIN_PASSES):
    """Whole passes until `seconds` are spent; returns per-op times of the
    passing attempts, per-op failure counts, and per-pass layer figures."""
    times = [[] for _ in ops]
    failures = [0] * len(ops)
    layers = []
    passes = 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        gc.collect()
        gc.disable()
        try:
            for i, op in enumerate(ops):
                prepared = runner.prepare(op)
                if tracer is not None:
                    tracer.op = i
                out = exc = None
                t0 = time.perf_counter()
                try:
                    out = runner.run(op, prepared)
                except Exception as e:  # judged by the check, never fatal
                    exc = e
                dt = time.perf_counter() - t0
                if runner.check(op, refs[i], out, exc):
                    times[i].append(dt)
                else:
                    failures[i] += 1
                del prepared, out, exc
        finally:
            gc.enable()
        passes += 1
        if tracer is not None:
            layers.append(tracing.pass_metrics(tracer))
    return times, failures, layers, passes


def upper_quartile(values):
    """Per-op time over the passes of a run. This machine switches between
    two speeds about 1.8x apart within seconds; the median flips to the fast
    one whenever it holds half of a run, the upper quartile only above three
    quarters (README, "Keeping runs steady")."""
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def end_to_end(times, failures, ops):
    """Per-op upper quartile over passes, then the metrics over passing ops."""
    per_op = {i: upper_quartile(t) for i, (t, f) in enumerate(zip(times, failures))
              if f == 0}
    if len(per_op) <= TAIL_BEYOND:
        raise BenchError("too few passing ops for a tail percentile")
    ranked = sorted(per_op, key=per_op.get)
    tail_index = len(ranked) - TAIL_BEYOND - 1
    by_kind = {}
    for i, t in per_op.items():
        by_kind.setdefault(ops[i]["op"], []).append(t * 1e3)
    return {
        "ops_per_s": len(per_op) / math.fsum(per_op.values()),
        "op_p50_ms": statistics.median(per_op.values()) * 1e3,
        "op_tail_ms": per_op[ranked[tail_index]] * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / len(ranked),
        "tail_op": ops[ranked[tail_index]],
        "passing_ops": len(per_op),
        "median_ms_by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def import_ineqif():
    if not (SRC / "ineqif" / "__init__.py").is_file():
        raise BenchError(f"no ineqif sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ineqif
    import ineqif.cli

    if Path(ineqif.__file__).resolve().parent != (SRC / "ineqif").resolve():
        raise BenchError(f"imported ineqif from {ineqif.__file__}, not {SRC}")
    return ineqif


def benchmark_metric_names(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ineqif benchmark run")
    ap.add_argument("--workload", required=True,
                    choices=("oracle", "model", "sample"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path,
                    help="append the run's result, with details, to this JSON-lines file")
    args = ap.parse_args(argv)

    try:
        ineqif = import_ineqif()
        names = benchmark_metric_names(bool(args.trace))
        ops, refs, data_dir = load_references(args.workload, args.seed)
        if tuple(ineqif.measures.DEFAULT_MEASURE_IDS) != oplists.MEASURE_IDS:
            raise BenchError("DEFAULT_MEASURE_IDS changed; op lists are stale")
        if args.trace:
            profile = import_profile()
        else:
            setup = measure_setup()
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    runner = Runner(ineqif, data_dir)
    runner.load_samples(ops)
    # Untimed warm-up: the first op of each kind.
    seen = set()
    for op in ops:
        if op["op"] not in seen:
            seen.add(op["op"])
            try:
                runner.run(op, runner.prepare(op))
            except Exception:
                pass

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "ops": len(ops)}
    if args.trace:
        half = args.seconds / 2.0
        times, failures, _, passes = timed_passes(runner, ops, refs, half,
                                                  min_passes=3)
        plain = end_to_end(times, failures, ops)
        tracer = tracing.Tracer()
        tracing.install(tracer, ineqif)
        t_times, t_failures, layers, t_passes = timed_passes(
            runner, ops, refs, half, tracer=tracer, min_passes=3)
        traced = end_to_end(t_times, t_failures, ops)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        values = {k: upper_quartile([p[k] for p in layers]) for k in layers[0]}
        values.update(profile)  # setup.import.*
        overhead = plain["ops_per_s"] / traced["ops_per_s"] - 1.0
        detail.update(untraced_ops_per_s=plain["ops_per_s"],
                      traced_ops_per_s=traced["ops_per_s"],
                      trace_overhead_pct=100.0 * overhead)
        print(f"{args.workload}: tracing overhead {100.0 * overhead:.1f}% "
              f"(ops_per_s {plain['ops_per_s']:.2f} untraced, "
              f"{traced['ops_per_s']:.2f} traced)")
        failures = [a + b for a, b in zip(failures, t_failures)]
        passes += t_passes
        units = {n: u for n, u, _ in tracing.PER_LAYER}
    else:
        times, failures, _, passes = timed_passes(runner, ops, refs, args.seconds)
        e2e = end_to_end(times, failures, ops)
        values = {"setup_s": setup, "ops_per_s": e2e["ops_per_s"],
                  "op_p50_ms": e2e["op_p50_ms"], "op_tail_ms": e2e["op_tail_ms"],
                  "peak_rss_mb": peak_rss_mb()}
        detail.update({k: e2e[k] for k in ("tail_percentile", "tail_op",
                                             "passing_ops", "median_ms_by_kind")})
        units = dict(END_TO_END)

    # Every failure must be a fixed op failing on every pass.
    failing = [i for i, f in enumerate(failures) if f]
    correct = all(ops[i].get("fixed") and failures[i] == passes for i in failing)
    detail.update(passes=passes, failing_ops=[ops[i] for i in failing])
    for i in failing:
        sys.stderr.write(f"bench: failed {failures[i]}/{passes}: {json.dumps(ops[i])}\n")

    if sorted(values) != sorted(names):
        sys.stderr.write(f"bench: metric names {sorted(values)} differ from "
                         f"BENCHMARK.json {sorted(names)}\n")
        return 2
    result = {"correct": bool(correct), "attempted": passes * len(ops),
              "failed": int(sum(failures)),
              "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**detail, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
