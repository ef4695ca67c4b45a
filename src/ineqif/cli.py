"""Command-line surface.

Subcommands: measure, if-curve, variance, verify, mc-study, compare-ge.
Distributions are given with the mini-grammar kind:param[,param...]
("exp:1", "pareto:3,1", "lognormal:0,0.5", "uniform:0,1", "sm:2,1,3"),
income files as one-value-per-row CSV. Reports are CSV (fixed 6-decimal
summary columns) or JSON (full-precision values) and always carry the
schema version, registry version and seed. Exit codes: 0 ok, 1 usage
error, 2 numeric failure (in measure and variance: of any one id, whose row
then carries the error), 3 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import Distribution, Empirical, make_distribution
from .errors import (
    DegenerateDenominator,
    DomainError,
    EmptyInput,
    IneqError,
    InvalidInterval,
    InvalidParameter,
    KinkPoint,
    MomentDiverges,
    NegativeIncome,
    NoisyLimit,
    NonConvergence,
    ParseError,
)
from .estimation import RngStream, mc_variance_study
from .influence import (
    asymptotic_variance,
    default_grid,
    if_curve,
    if_special,
    printed_variants,
)
from .measures import (
    DEFAULT_MEASURE_IDS,
    REGISTRY_VERSION,
    MeasureFunctional,
    parse_measure_id,
)
from .numeric import DEFAULT_TOL, Tolerance

SCHEMA_VERSION = "1"
DEFAULT_SEED = 42

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3

_NUMERIC_FAILURES = (
    NonConvergence,
    MomentDiverges,
    DegenerateDenominator,
    DomainError,
    KinkPoint,
    NoisyLimit,
    InvalidInterval,
)
_USAGE_FAILURES = (InvalidParameter, ParseError, EmptyInput, NegativeIncome)

# Relative slack applied on top of the absolute verification tolerance.
VERIFY_REL_SLACK = 1e-4


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def ingest_csv(path: str) -> Empirical:
    """Read one income per row; optional single 'income' header row.

    Blank lines and a leading UTF-8 byte-order mark are ignored; bad rows
    raise ParseError/NegativeIncome with their 1-based physical row number.
    A path that cannot be read as UTF-8 text raises InvalidParameter
    naming it.
    """
    try:
        with open(path, "rb") as fh:  # read once: the path may be a pipe
            seen, data = os.fstat(fh.fileno()), fh.read()
        values = _plain_decimal_values(path, data, seen)
        if values is None:
            # universal newlines: the same lines, numbered alike, as readlines
            data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
            data = data.read()  # one copy at a time: bytes, text, lines
            data = data.split("\n")
            values = _parse_rows(data)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"cannot read input file {path!r}: {exc}") from exc
    del data  # freed before the sort below copies the values
    if not values.size:
        raise EmptyInput(f"no data rows in {path}")
    return Empirical.from_values(values)


def _plain_decimal_values(path: str, data: bytes,
                          seen: os.stat_result) -> Optional[np.ndarray]:
    """numpy's C reader (float's own PyOS_string_to_double) on an unchanged
    file of plain decimals after an optional BOM and 'income' row; else None."""
    plain = b"0123456789.eE+- \t\r\n"
    head = re.match(rb"(?:\xef\xbb\xbf)?((?i:income)\r?\n)?", data)
    if (data.translate(None, plain) != head.group().translate(None, plain)
            or not re.search(rb"[0-9]", data) or len(data) != seen.st_size):
        return None  # a pipe or a device reports size 0
    stamp = lambda st: (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    try:  # "./": numpy's DataSource fetches a relative path shaped as a URL
        values = np.loadtxt(os.path.join(".", path), dtype=float,
                            comments=None, delimiter=",", ndmin=1,
                            skiprows=int(bool(head[1])), encoding="utf-8-sig")
        if stamp(os.stat(path)) != stamp(seen):
            return None  # the file changed after the read: other bytes
    except Exception:  # a row of blanks; a name numpy decompresses, as .xz
        return None
    return values if np.all(np.isfinite(values) & (values >= 0)) else None


def _parse_rows(lines: list[str]) -> np.ndarray:
    """float on each stripped row but a first 'income' header row."""
    first = next((i for i, raw in enumerate(lines) if raw.strip()), None)
    if first is not None and lines[first].strip().lower() == "income":
        lines[first] = ""  # blanked, not removed: row numbers still count it
    # strip first: str.strip removes \x1c-\x1f, which float() rejects
    try:
        values = np.fromiter(map(float, filter(None, map(str.strip, lines))),
                             dtype=float)
        if np.all(np.isfinite(values) & (values >= 0)):
            return values
    except ValueError:
        pass
    for row_no, raw in enumerate(lines, start=1):  # name the first bad row
        line = raw.strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise ParseError(row_no, line) from None
        if not math.isfinite(value):
            raise ParseError(row_no, line)
        if value < 0:
            raise NegativeIncome(row_no, value)
    raise AssertionError("no bad row among lines the one-pass parse rejected")


def parse_distribution(spec: str) -> Distribution:
    """Parse the kind:param[,param...] mini-grammar."""
    name, _, rest = str(spec).partition(":")
    if not name:
        raise InvalidParameter(f"empty distribution spec {spec!r}")
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise InvalidParameter(f"bad parameter list in {spec!r}") from None
    return make_distribution(name, *params)


def parse_grid(spec: str) -> np.ndarray:
    """Parse min:max:count:log|lin into a grid of z values; points that
    round to one float are one point."""
    parts = str(spec).split(":")
    if len(parts) != 4:
        raise InvalidParameter(
            f"grid spec must be min:max:count:log|lin, got {spec!r}"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise InvalidParameter(f"bad grid numbers in {spec!r}") from None
    spacing = parts[3].lower()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameter(f"grid bounds must be finite, got {spec!r}")
    if count < 1:
        raise InvalidParameter(f"grid count must be >= 1, got {count}")
    if not lo < hi and count > 1:
        raise InvalidParameter(f"grid needs min < max, got {spec!r}")
    if spacing == "lin":
        return np.unique(np.linspace(lo, hi, count))
    if spacing == "log":
        if lo <= 0:
            raise InvalidParameter("log grid needs min > 0")
        return np.unique(np.geomspace(lo, hi, count))
    raise InvalidParameter(f"grid spacing must be log or lin, got {spacing!r}")


def _expand_ids(raw: Optional[str],
                single: Optional[str]) -> list[MeasureFunctional]:
    """Parse the --ids/--id list once, into the measures the run uses."""
    token = raw if raw is not None else single
    if token is None:
        raise InvalidParameter("a measure id is required (--id/--ids)")
    token = token.strip()
    if token.lower() == "all":
        ids = DEFAULT_MEASURE_IDS
    else:
        ids = [t.strip() for t in token.split(",") if t.strip()]
    if not ids:
        raise InvalidParameter("empty measure id list")
    return [parse_measure_id(t) for t in ids]


@dataclass(frozen=True)
class RunConfig:
    """Validated run description shared by the subcommand handlers."""

    command: str
    measures: tuple  # of MeasureFunctional
    dist: Optional[str]
    input_path: Optional[str]
    grid: Optional[str]
    tol: Tolerance
    seed: int
    out: Optional[str]
    fmt: str

    def __post_init__(self):
        if self.command == "measure":
            if (self.dist is None) == (self.input_path is None):
                raise InvalidParameter(
                    "exactly one of --dist or --input must be given"
                )
        elif self.command in ("if-curve", "variance", "verify", "mc-study",
                              "compare-ge"):
            if self.dist is None:
                raise InvalidParameter(f"{self.command} requires --dist")

    def distribution(self) -> Distribution:
        return parse_distribution(self.dist)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.6f}"
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return None
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def render_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def render_json(payload: dict) -> str:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return _json_safe(obj)

    return json.dumps(clean(payload), indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ineqif-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, payload: dict, columns, rows) -> None:
    if cfg.fmt == "json":
        text = render_json(payload)
    else:
        text = render_csv(columns, rows)
    if cfg.out:
        _atomic_write(cfg.out, text)
    else:
        sys.stdout.write(text)


def _payload(cfg: RunConfig, **extra) -> dict:
    base = {
        "schema_version": SCHEMA_VERSION,
        "registry_version": REGISTRY_VERSION,
        "command": cfg.command,
        "seed": cfg.seed,
    }
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _emit_results(cfg: RunConfig, source: dict, column: str, compute) -> int:
    """One result row per measure id. An id whose evaluation fails keeps
    its row, with a null value and its own error; the payload also carries
    the first failure as its `error` object, and the command exits 2."""
    rows, first = [], None
    for T in cfg.measures:
        try:
            rows.append({"measure_id": T.id, column: compute(T)})
        except _NUMERIC_FAILURES as exc:
            first = first or exc
            message = f"{type(exc).__name__}: {exc}"
            rows.append({"measure_id": T.id, column: None, "error": message})
            sys.stderr.write(f"error: {T.id}: {message}\n")
    columns = ["measure_id", column]
    if first is None:
        _emit(cfg, _payload(cfg, **source, results=rows), columns, rows)
        return EXIT_OK
    payload = _payload(cfg, **source, results=rows, error=_error_object(first))
    _emit(cfg, payload, columns + ["error"], rows)
    return EXIT_NUMERIC


def _cmd_measure(cfg: RunConfig) -> int:
    if cfg.input_path is not None:
        F = ingest_csv(cfg.input_path)
        source = {"input": cfg.input_path, "n": F.n}
    else:
        F = cfg.distribution()
        source = {"distribution": F.descriptor()}
    return _emit_results(cfg, source, "value", lambda T: T.evaluate(F, cfg.tol))


def _cmd_if_curve(cfg: RunConfig, with_oracle: bool) -> int:
    F = cfg.distribution()
    T = cfg.measures[0]
    grid = parse_grid(cfg.grid) if cfg.grid else default_grid(F, T)
    curve = if_curve(T, F, grid, with_oracle=with_oracle, tol=cfg.tol)
    rows = []
    for i, z in enumerate(curve.grid):
        closed = float(curve.closed_form[i])
        oracle = float(curve.oracle[i]) if curve.oracle is not None else None
        abs_err = None
        if oracle is not None and math.isfinite(oracle) and math.isfinite(closed):
            abs_err = abs(closed - oracle)
        rows.append({
            "z": float(z),
            "if_closed": closed if math.isfinite(closed) else None,
            "if_oracle": oracle if oracle is not None and math.isfinite(oracle) else None,
            "abs_err": abs_err,
        })
    payload = _payload(
        cfg,
        measure_id=curve.measure_id,
        distribution=curve.distribution,
        max_abs_discrepancy=curve.max_abs_discrepancy,
        point_errors=[{"index": i, "message": m} for i, m in curve.point_errors],
        rows=rows,
    )
    _emit(cfg, payload, ["z", "if_closed", "if_oracle", "abs_err"], rows)
    return EXIT_OK


def _cmd_variance(cfg: RunConfig) -> int:
    F = cfg.distribution()
    return _emit_results(cfg, {"distribution": F.descriptor()}, "sigma2",
                         lambda T: asymptotic_variance(T, F, cfg.tol))


def _formula_sources(T: MeasureFunctional) -> list:
    """(source, normative, note, evaluate(F, z, tol, spec)) for theorem1,
    the normative closed form, and for each printed display of T."""
    theorem1 = lambda F, z, tol, spec: if_special(T, F, z, tol)
    return [("theorem1", True, None, theorem1)] + [
        (v.source, False, v.note, v.evaluate) for v in printed_variants(T)]


def _oracle_points(cfg: RunConfig, F: Distribution, T: MeasureFunctional):
    """The grid points where the Gateaux oracle evaluates, as Python floats,
    and its values there, read from if_curve. T(F) is evaluated first: its
    failure raises here, once, instead of at every point."""
    grid = parse_grid(cfg.grid) if cfg.grid else default_grid(F, T)
    T.evaluate(F, cfg.tol)
    curve = if_curve(T, F, grid, with_oracle=True, tol=cfg.tol)
    kept = np.isfinite(curve.oracle)
    return curve.grid[kept].tolist(), curve.oracle[kept]


def _column(evaluate, F: Distribution, zs: list, tol: Tolerance, spec):
    """One formula source at the oracle's points: its values, NaN where it
    fails or is not finite, and the last such failure. A stray arithmetic
    error of a printed display counts as a DomainError at its z."""
    values, failure = np.full(len(zs), np.nan), None
    for i, z in enumerate(zs):
        try:
            value = evaluate(F, z, tol, spec)
            if not math.isfinite(value):
                raise DomainError(f"IF is {value} at z={z}")
            values[i] = value
        except IneqError as exc:
            failure = exc
        except (ArithmeticError, ValueError) as exc:
            failure = DomainError(f"{type(exc).__name__} at z={z}: {exc}")
    return values, failure


def _gate(values: np.ndarray, oracle: np.ndarray, abs_tol: float):
    """|v - oracle| and the tolerance it must not exceed,
    max(abs_tol, VERIFY_REL_SLACK * |v|); abs_tol alone where v is NaN."""
    return (np.abs(values - oracle),
            np.fmax(abs_tol, VERIFY_REL_SLACK * np.abs(values)))


def _cmd_verify(cfg: RunConfig, abs_tol: float) -> int:
    F = cfg.distribution()
    rows = []
    any_normative_fail = False
    for T in cfg.measures:
        try:
            zs, oracle = _oracle_points(cfg, F, T)
            skip = None if zs else "no oracle-evaluable grid points"
        except _NUMERIC_FAILURES as exc:
            skip = str(exc)
        for source, normative, note, evaluate in _formula_sources(T):
            row = {"measure_id": T.id, "formula_source": source,
                   "normative": normative, "max_abs_err": None,
                   "verdict": "SKIP", "note": skip}
            if skip is None:
                values, failure = _column(evaluate, F, zs, cfg.tol, T.spec)
                err, bound = _gate(values, oracle, abs_tol)
                if np.isnan(values).all():
                    row["note"] = f"closed form: {failure}"
                else:
                    row.update(max_abs_err=float(np.nanmax(err)), note=note,
                               verdict="FAIL" if (err > bound).any() else "PASS")
            rows.append(row)
            any_normative_fail |= normative and row["verdict"] == "FAIL"
    payload = _payload(cfg, distribution=F.descriptor(),
                       tolerance=abs_tol, rel_slack=VERIFY_REL_SLACK,
                       rows=rows)
    _emit(cfg, payload, ["measure_id", "formula_source", "normative",
                         "max_abs_err", "verdict", "note"], rows)
    return EXIT_VERIFY if any_normative_fail else EXIT_OK


def _cmd_mc_study(cfg: RunConfig, n: int, reps: int) -> int:
    F = cfg.distribution()
    T = cfg.measures[0]
    report = mc_variance_study(T, F, n, reps, RngStream(cfg.seed), cfg.tol)
    row = report.to_dict()
    _emit(cfg, _payload(cfg, **row), list(row), [row])
    return EXIT_OK


def _cmd_compare_ge(cfg: RunConfig, alpha: float, abs_tol: float) -> int:
    """Per-point view of the theorem1 and without_coefficient rows of
    `verify --ids ge:<alpha>`: one row per point where the oracle
    evaluates. A failure of GE(F) itself exits 2; a formula that fails at
    a point leaves a null cell there."""
    F = cfg.distribution()
    T = parse_measure_id(f"ge:{alpha!r}")
    zs, oracle = _oracle_points(cfg, F, T)
    with_c, without_c = (_column(evaluate, F, zs, cfg.tol, T.spec)[0]
                         for source, _, _, evaluate in _formula_sources(T)
                         if source in ("theorem1", "without_coefficient"))
    err_with, bound = _gate(with_c, oracle, abs_tol)
    err_without = np.abs(without_c - oracle)
    excess = err_without / bound  # an overflowing excess reads inf
    columns = ["z", "if_with_coeff", "if_without_coeff", "oracle",
               "abs_err_with", "abs_err_without"]
    rows = [dict(zip(columns, cells)) for cells in zip(zs, *(
        a.tolist() for a in (with_c, without_c, oracle, err_with, err_without)))]
    payload = _payload(
        cfg,
        distribution=F.descriptor(),
        alpha=alpha,
        tolerance=abs_tol,
        with_coefficient_matches_oracle=bool(
            np.isfinite(with_c).any() and not (err_with > bound).any()),
        without_coefficient_max_excess_over_tolerance=float(
            np.fmax.reduce(excess, initial=0.0)),
        rows=rows,
    )
    _emit(cfg, payload, columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameter(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ineqif", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_ids=True):
        if needs_ids:
            p.add_argument("--id", help="single measure id, e.g. theil or ge:2")
            p.add_argument("--ids", help="comma list of measure ids, or 'all'")
        p.add_argument("--dist", help="distribution spec, e.g. exp:1")
        p.add_argument("--grid", help="z grid as min:max:count:log|lin")
        p.add_argument("--tol", type=float, default=None,
                       help="absolute tolerance override")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (written atomically)")

    p = sub.add_parser("measure", help="evaluate measures on a distribution "
                                       "or an income CSV")
    common(p)
    p.add_argument("--input", help="CSV file with one income per row")

    p = sub.add_parser("if-curve", help="closed-form IF (optionally oracle) "
                                        "over a z grid")
    common(p)
    p.add_argument("--oracle", action="store_true",
                   help="also run the Gateaux oracle per grid point")

    p = sub.add_parser("variance", help="asymptotic variance per measure")
    common(p)

    p = sub.add_parser("verify", help="adjudicate every formula against the "
                                      "Gateaux oracle")
    common(p)

    p = sub.add_parser("mc-study", help="Monte Carlo variance consistency "
                                        "study")
    common(p)
    p.add_argument("--n", type=int, default=20000)
    p.add_argument("--reps", type=int, default=400)

    p = sub.add_parser("compare-ge", help="GE IF with and without the "
                                          "leading coefficient vs the oracle")
    common(p, needs_ids=False)
    p.add_argument("--alpha", type=float, default=2.0)

    return parser


def _make_config(args) -> RunConfig:
    if args.tol is not None:
        if not 0 < args.tol < math.inf:
            raise InvalidParameter(f"--tol must be finite and > 0, got {args.tol}")
        tol = Tolerance(abs_tol=min(args.tol * 1e-3, 1e-10),
                        rel_tol=1e-9,
                        max_subdivisions=DEFAULT_TOL.max_subdivisions)
    else:
        tol = DEFAULT_TOL
    needs_ids = args.command not in ("compare-ge",)
    measures = tuple(_expand_ids(getattr(args, "ids", None),
                                 getattr(args, "id", None))) if needs_ids else ()
    if args.command in ("if-curve", "mc-study") and len(measures) != 1:
        raise InvalidParameter(f"{args.command} takes exactly one --id")
    return RunConfig(
        command=args.command,
        measures=measures,
        dist=args.dist,
        input_path=getattr(args, "input", None),
        grid=args.grid,
        tol=tol,
        seed=args.seed,
        out=args.out,
        fmt=args.format,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InvalidParameter as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE

    fmt = getattr(args, "format", "csv")
    try:
        with np.errstate(all="ignore"):  # results carry non-finite values
            cfg = _make_config(args)
            abs_tol = args.tol if args.tol is not None else 1e-5
            if args.command == "measure":
                return _cmd_measure(cfg)
            if args.command == "if-curve":
                return _cmd_if_curve(cfg, with_oracle=args.oracle)
            if args.command == "variance":
                return _cmd_variance(cfg)
            if args.command == "verify":
                return _cmd_verify(cfg, abs_tol)
            if args.command == "mc-study":
                return _cmd_mc_study(cfg, args.n, args.reps)
            if args.command == "compare-ge":
                return _cmd_compare_ge(cfg, args.alpha, abs_tol)
            raise InvalidParameter(f"unknown command {args.command!r}")
    except _USAGE_FAILURES as exc:
        _report_error(fmt, exc)
        return EXIT_USAGE
    except _NUMERIC_FAILURES as exc:
        _report_error(fmt, exc)
        return EXIT_NUMERIC


def _error_object(exc: Exception) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _report_error(fmt: str, exc: Exception) -> None:
    if fmt == "json":
        sys.stdout.write(render_json({"error": _error_object(exc)}))
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
