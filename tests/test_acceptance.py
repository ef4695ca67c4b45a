"""Acceptance suite.

One test per criterion; each prints a single [acceptance] PASS/FAIL line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

import ineqif.cli as cli
from ineqif import (
    Dirac,
    RngStream,
    atkinson_from_appendix_parameter,
    default_grid,
    draw_sample,
    functional_value,
    gateaux_if,
    if_special,
    make_distribution,
    mc_variance_study,
    parse_measure_id,
    printed_variants,
    qsr_components,
    scaled,
    sensitivity_curve,
    translated,
)
from ineqif.errors import MomentDiverges, NegativeIncome
from ineqif.influence import _closed_if_vectorized
from ineqif.measures import make_spec

CRITERION1_MEASURES = ("ge:-1", "ge:0.5", "ge:2", "theil", "mld",
                       "atkinson:0.5", "champernowne", "kolm:1", "gini",
                       "qsr")
FLEET = ("exp:1", "uniform:0,1", "pareto:3,1", "lognormal:0,0.5")


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def _pairs(fleet):
    """(measure, distribution) pairs with divergent moments skipped."""
    for spec_name in FLEET:
        F = fleet[spec_name]
        for mid in CRITERION1_MEASURES:
            T = parse_measure_id(mid)
            try:
                if T.kind == "theil_like":
                    functional_value(T.spec, F)
            except MomentDiverges:
                continue
            yield mid, spec_name, F, T


def test_criterion_1_oracle_agreement(fleet):
    with criterion(1, "closed-form IF matches Gateaux oracle"):
        checked = 0
        for mid, spec_name, F, T in _pairs(fleet):
            for z in default_grid(F, mid):
                z = float(z)
                closed = if_special(T, F, z)
                oracle = gateaux_if(T, F, z).value
                tol = max(1e-5, 1e-4 * abs(closed))
                assert abs(closed - oracle) <= tol, (
                    f"{mid} on {spec_name} at z={z}: "
                    f"closed={closed} oracle={oracle}")
                checked += 1
        assert checked >= 38 * 20  # 40 pairs minus the two divergent ones


def test_criterion_2_centering(fleet, density_expect):
    with criterion(2, "influence functions integrate to zero"):
        for mid, spec_name, F, T in _pairs(fleet):
            if_fn = _closed_if_vectorized(T, F)
            if T.kind == "qsr":
                _, _, q1, q4 = qsr_components(F)
                residual = density_expect(F, if_fn, points=(q1, q4))
            else:
                residual = F.expect(if_fn)
            assert abs(residual) <= 1e-7, f"{mid} on {spec_name}: {residual}"


def test_criterion_3_known_values():
    with criterion(3, "independently derivable constants"):
        for rate in (0.5, 1.0, 2.0):
            F = make_distribution("exp", rate)
            assert parse_measure_id("gini").evaluate(F) == pytest.approx(
                0.5, abs=1e-6)
        assert parse_measure_id("gini").evaluate(
            make_distribution("pareto", 3, 1)) == pytest.approx(0.2, abs=1e-6)
        assert parse_measure_id("gini").evaluate(
            make_distribution("uniform", 0, 1)) == pytest.approx(
                1.0 / 3.0, abs=1e-6)
        assert parse_measure_id("qsr").evaluate(
            make_distribution("uniform", 0, 1)) == pytest.approx(
                9.0, abs=1e-4)
        for sigma in (0.3, 0.6):
            L = make_distribution("lognormal", 0, sigma)
            assert parse_measure_id("theil").evaluate(L) == pytest.approx(
                sigma ** 2 / 2, abs=1e-6)
            assert parse_measure_id("mld").evaluate(L) == pytest.approx(
                sigma ** 2 / 2, abs=1e-6)


def test_criterion_4_family_limits(fleet):
    with criterion(4, "family-limit continuity"):
        for spec_name in FLEET:
            F = fleet[spec_name]
            theil = parse_measure_id("theil").evaluate(F)
            mld = parse_measure_id("mld").evaluate(F)
            for alpha in (1 + 1e-4, 1 - 1e-4):
                value = functional_value(make_spec("ge", alpha), F).value
                assert abs(value - theil) <= 1e-3, (spec_name, alpha)
            for alpha in (1e-4, -1e-4):
                value = functional_value(make_spec("ge", alpha), F).value
                assert abs(value - mld) <= 1e-3, (spec_name, alpha)
            atk = functional_value(
                atkinson_from_appendix_parameter(1 - 1e-4), F).value
            assert abs(atk - (1 - math.exp(-mld))) <= 1e-3, spec_name


def test_criterion_5_ge_coefficient_adjudication(fleet, capsys):
    with criterion(5, "GE coefficient adjudication"):
        F = fleet["exp:1"]
        T = parse_measure_id("ge:2")
        without = {v.source: v for v in printed_variants(T)}[
            "without_coefficient"]
        worst_excess = 0.0
        for z in default_grid(F, T):
            z = float(z)
            oracle = gateaux_if(T, F, z).value
            with_c = if_special(T, F, z)
            without_c = without.evaluate(F, z, T.spec)
            tol = max(1e-5, 1e-4 * abs(with_c))
            assert abs(with_c - oracle) <= tol
            worst_excess = max(worst_excess, abs(without_c - oracle) / tol)
        assert worst_excess > 10.0
        # the compare-ge report demonstrates both variants
        assert cli.main(["compare-ge", "--dist", "exp:1", "--alpha", "2",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["with_coefficient_matches_oracle"] is True
        assert payload["without_coefficient_max_excess_over_tolerance"] > 10.0


def test_criterion_6_variance_consistency(fleet):
    with criterion(6, "sigma^2 matches Monte Carlo at n=20000"):
        start = time.monotonic()
        for spec_name in ("exp:1", "uniform:0,1"):
            F = fleet[spec_name]
            for mid in ("theil", "mld", "gini"):
                report = mc_variance_study(parse_measure_id(mid), F,
                                           20000, 400, RngStream(42))
                assert 0.85 <= report.ratio <= 1.15, (
                    f"{mid} on {spec_name}: ratio {report.ratio}")
                assert report.rejections == 0
        assert time.monotonic() - start <= 120.0


def test_criterion_7_sensitivity_curve_convergence():
    with criterion(7, "sensitivity curve converges to the IF"):
        F = make_distribution("exp", 1.0)
        T = parse_measure_id("theil")
        target = if_special("theil", F, 2.0)
        medians = []
        for n in (500, 2000, 8000):
            deviations = [
                abs(sensitivity_curve(T, draw_sample(F, n, RngStream(seed)),
                                      2.0) - target)
                for seed in range(20)
            ]
            medians.append(float(np.median(deviations)))
        assert medians[0] > medians[1] > medians[2], medians


def test_criterion_8_invariances(fleet):
    with criterion(8, "scale/translation invariance and zero at equality"):
        relative = ("ge:2", "ge:0.5", "theil", "mld", "atkinson:0.5",
                    "champernowne", "gini", "qsr")
        for spec_name in FLEET:
            F = fleet[spec_name]
            G = scaled(F, 7.0)
            for mid in relative:
                T = parse_measure_id(mid)
                assert abs(T.evaluate(F) - T.evaluate(G)) <= 1e-9
        kolm = parse_measure_id("kolm:1")
        U = make_distribution("uniform", 0, 1)
        assert abs(kolm.evaluate(U)
                   - kolm.evaluate(translated(U, 5.0))) <= 1e-9
        for mid in ("ge:2", "ge:0.5", "theil", "mld", "atkinson:0.5",
                    "champernowne", "kolm:1", "gini"):
            assert abs(parse_measure_id(mid).evaluate(Dirac(7.0))) <= 1e-12
        near_equality = make_distribution("uniform", 1.0, 1.0 + 1e-9)
        assert parse_measure_id("qsr").evaluate(near_equality) == \
            pytest.approx(1.0, abs=1e-6)


def test_criterion_9_cli_contract(tmp_path, capsys, monkeypatch):
    with criterion(9, "CLI golden files, ingest and exit codes"):
        # golden bytes for the worked two-point example
        data = tmp_path / "two.csv"
        data.write_text("income\n1\n3\n", encoding="utf-8")
        assert cli.main(["measure", "--id", "theil",
                         "--input", str(data)]) == 0
        assert capsys.readouterr().out == "measure_id,value\ntheil,0.130812\n"

        # byte-stable reports on fixed inputs and seed
        for argv in (
            ["if-curve", "--id", "mld", "--dist", "exp:1",
             "--grid", "0.5:2:5:lin", "--oracle"],
            ["verify", "--dist", "exp:1", "--ids", "theil,gini"],
            ["compare-ge", "--dist", "exp:1", "--alpha", "2"],
            ["mc-study", "--id", "theil", "--dist", "exp:1",
             "--n", "500", "--reps", "20", "--seed", "42"],
        ):
            out1 = tmp_path / "r1.csv"
            out2 = tmp_path / "r2.csv"
            assert cli.main(argv + ["--out", str(out1)]) == 0
            assert cli.main(argv + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

        # ingest rejects negative incomes with the right row number
        bad = tmp_path / "bad.csv"
        bad.write_text("income\n1\n2\n-2\n", encoding="utf-8")
        with pytest.raises(NegativeIncome) as excinfo:
            cli.ingest_csv(str(bad))
        assert excinfo.value.row == 4

        # exit-code contract
        assert cli.main(["measure", "--id", "theil", "--dist", "exp:1"]) == 0
        assert cli.main(["measure", "--id", "theil", "--dist", "exp:0"]) == 1
        assert cli.main(["measure", "--id", "ge:2",
                         "--dist", "pareto:1.5,1"]) == 2
        assert cli.main(["verify", "--dist", "exp:1", "--ids", "all"]) == 0
        monkeypatch.setattr(cli, "if_special", lambda T, F, z: 1e6)
        assert cli.main(["verify", "--dist", "exp:1", "--ids", "theil"]) == 3
        capsys.readouterr()
