import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ineqif.cli as cli
from ineqif import (
    DEFAULT_MEASURE_IDS,
    Empirical,
    functional_value,
    if_special,
    make_spec,
    parse_measure_id,
    printed_variants,
)
from ineqif.cli import ingest_csv, main, parse_distribution, parse_grid
from ineqif.errors import (
    EmptyInput,
    IneqError,
    InvalidParameter,
    NegativeIncome,
    ParseError,
)


def _run_cli(argv, stdin=b""):
    """Run the CLI in a fresh interpreter, where numpy prints a warning once
    per source line; stdin is fed through a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "ineqif.cli"] + argv,
        env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(os.path.abspath(cli.__file__)))},
        input=stdin, capture_output=True, timeout=120)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestIngest:
    def test_header_and_two_rows(self, tmp_path):
        s = ingest_csv(write(tmp_path, "a.csv", "income\n1\n3\n"))
        assert list(s.values) == [1.0, 3.0]

    def test_negative_income_row_number(self, tmp_path):
        path = write(tmp_path, "b.csv", "income\n1\n2\n-2\n5\n")
        with pytest.raises(NegativeIncome) as excinfo:
            ingest_csv(path)
        assert excinfo.value.row == 4

    def test_scientific_notation(self, tmp_path):
        s = ingest_csv(write(tmp_path, "c.csv", "1e3\n"))
        assert list(s.values) == [1000.0]

    def test_blank_lines_ignored(self, tmp_path):
        s = ingest_csv(write(tmp_path, "d.csv", "\n2\n\n1\n\n"))
        assert list(s.values) == [1.0, 2.0]

    def test_parse_error_row_number(self, tmp_path):
        path = write(tmp_path, "e.csv", "1\nabc\n3\n")
        with pytest.raises(ParseError) as excinfo:
            ingest_csv(path)
        assert excinfo.value.row == 2

    def test_empty_input(self, tmp_path):
        with pytest.raises(EmptyInput):
            ingest_csv(write(tmp_path, "f.csv", "income\n\n"))


def _ingest_by_line_loop(path):
    """The line-by-line reader that the one-pass ingest replaced, kept as its
    oracle (opened with utf-8-sig, the one intended change)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.readlines()
    values = []
    seen_content = False
    for row_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if not seen_content and line.lower() == "income":
            seen_content = True
            continue
        seen_content = True
        try:
            value = float(line)
        except ValueError:
            raise ParseError(row_no, line) from None
        if math.isnan(value) or math.isinf(value):
            raise ParseError(row_no, line)
        if value < 0:
            raise NegativeIncome(row_no, value)
        values.append(value)
    if not values:
        raise EmptyInput(f"no data rows in {path}")
    return Empirical.from_values(values)


def _outcome(reader, path):
    try:
        return ("values", reader(path).values.tobytes())
    except IneqError as exc:
        return (type(exc), str(exc), getattr(exc, "row", None))


# pieces of rows: number syntax, float's extra grammar (underscores, Unicode
# digits and spaces), non-finite and negative values, NUL, the characters
# str.strip removes but float does not (\x1c-\x1f), two numbers on a row
_PIECES = st.sampled_from([
    "0", "1", "7", "42", "-", "+", ".", "e", "E", "_", "nan", "NaN", "inf",
    "-inf", "1e400", "-0", "١٢", "٣", "\u2003", "\xa0", "\x1c", "\x1f",
    "\x85", "\x00", " ", "\t", "1 2", "income",
])
_ROW = st.one_of(
    st.floats(min_value=-1.0, max_value=1e12).map(repr),
    st.integers(min_value=0, max_value=10 ** 6).map(str),
    st.lists(_PIECES, max_size=4).map("".join),
    st.sampled_from(["", " ", "\t ", "income", "INCOME", " Income "]),
)
_FILE_TEXT = st.lists(
    st.tuples(_ROW, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8,
).map(lambda rows: "".join(row + end for row, end in rows))


# plain-decimal files, which numpy's C reader parses: rows of digits,
# '.eE+-' and blanks (signed zero, overflow, float's short forms, malformed
# numbers, padding, whitespace-only rows) after an optional BOM and header
_PLAIN_PIECES = st.sampled_from([
    "0", "1", "7", "42", "-0", "1e400", "+.5e-3", "5.", "1-2", "1e", "-",
    "+", ".", "e", "E", " ", "\t",
])
_PLAIN_ROW = st.one_of(
    st.floats(min_value=-1.0, max_value=1e12).map(repr),
    st.lists(_PLAIN_PIECES, max_size=4).map("".join),
)
_LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
_PLAIN_FILE_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.sampled_from(["", "income\n", "INCOME\r\n", "Income\n"]),
    st.lists(st.tuples(_PLAIN_ROW, _LINE_END), max_size=8),
).map(lambda f: f[0] + f[1] + "".join(row + end for row, end in f[2]))


class TestIngestMatchesLineLoop:
    def _check(self, tmp_path_factory, text, name="incomes.csv"):
        path = tmp_path_factory.mktemp("ingest") / name
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(ingest_csv, str(path)) == \
            _outcome(_ingest_by_line_loop, str(path))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_FILE_TEXT)
    # rows numpy.loadtxt gets wrong: two numbers on the one row, float's
    # underscore and Unicode-digit grammar; then the strip/float split
    @example(text="1 2\n")
    @example(text="income\n1_000\n")
    @example(text="١٢\n")
    @example(text="\x1c1.5\x1c\n2\n")
    @example(text="income\n\n3\r\n-0\rINCOME\n")
    @example(text="\ufeffincome\n1.5\n2\n")
    def test_same_values_or_same_error(self, tmp_path_factory, text):
        self._check(tmp_path_factory, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_PLAIN_FILE_TEXT)
    # numpy returns; numpy rejects a blank row of spaces and a malformed
    # number; a file without digits never reaches numpy; an infinite or
    # negative value sends the file to the line loop
    @example(text="\ufeffINCOME\r\n-0\r\n+.5e-3\r5.\n\n")
    @example(text="income\n1\n \n2\n")
    @example(text="1\n1-2\n")
    @example(text="income\n")
    @example(text="1e400\n")
    @example(text="3\n-1\n")
    def test_plain_decimal_same_values_or_same_error(self, tmp_path_factory,
                                                      text):
        self._check(tmp_path_factory, text)

    @pytest.mark.parametrize("name", ["incomes.xz", "incomes.lzma",
                                      "incomes.gz", "incomes.bz2"])
    @pytest.mark.parametrize("text", ["income\n1.5\n2\n", "1\n-2\n",
                                      "1\n1-2\n"])
    def test_plain_file_with_a_compressed_name(self, tmp_path_factory, name,
                                               text):
        # numpy picks a decompressor from the name; the bytes are plain text
        self._check(tmp_path_factory, text, name)

    @pytest.mark.parametrize("change", ["append", "rename", "rewrite"])
    def test_file_changed_after_the_read(self, tmp_path, monkeypatch, change):
        # the values come from the bytes read once, not from a later state
        path = tmp_path / "incomes.csv"
        path.write_bytes(b"income\n1.5\n2\n")
        expected = _outcome(_ingest_by_line_loop, str(path))
        loadtxt = np.loadtxt

        def change_then_load(*args, **kwargs):
            if change == "append":
                with open(path, "ab") as fh:
                    fh.write(b"7\n")
            elif change == "rename":
                (tmp_path / "new.csv").write_bytes(b"income\n9.5\n8\n")
                os.replace(tmp_path / "new.csv", path)
            else:  # same size, in place, with a later modification time
                mtime = path.stat().st_mtime_ns
                path.write_bytes(b"income\n9.5\n8\n")
                os.utime(path, ns=(mtime + 10 ** 9, mtime + 10 ** 9))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", change_then_load)
        assert _outcome(ingest_csv, str(path)) == expected

    def test_plain_file_is_parsed_without_a_python_float_per_row(self,
                                                                 tmp_path):
        # the float line loop holds a list of lines and one of floats,
        # about 7.7 times the file's size
        x = np.random.default_rng(1).lognormal(0.0, 1.0, 200_000)
        path = write(tmp_path, "plain.csv",
                     "income\n" + "\n".join(map("{:.9g}".format, x)) + "\n")
        tracemalloc.start()
        try:
            values = ingest_csv(path).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.size == x.size
        assert peak < 4 * os.path.getsize(path)

    def test_other_files_are_parsed_without_a_python_float_per_row(self,
                                                                   tmp_path):
        # one float pass over the lines, as before the C route: about 7
        # times the file's size; a list of Python floats would take 9.7
        rows = list(map("{:.9g}".format,
                        np.random.default_rng(1).lognormal(0, 1, 200_000)))
        for name, last in (("underscore.csv", "1_000"), ("blank.csv", " ")):
            path = write(tmp_path, name, "\n".join(rows + [last]) + "\n")
            tracemalloc.start()
            try:
                values = ingest_csv(path).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert values.size == len(rows) + (last == "1_000")
            assert peak < 8 * os.path.getsize(path)


class TestParsers:
    def test_distribution_grammar(self):
        assert parse_distribution("exp:1").descriptor() == "exp:1"
        assert parse_distribution("pareto:3,1").descriptor() == "pareto:3,1"
        assert parse_distribution("sm:2,1,3").descriptor() == "sm:2,1,3"
        with pytest.raises(InvalidParameter):
            parse_distribution("exp:1,2")
        with pytest.raises(InvalidParameter):
            parse_distribution("exp:abc")

    def test_grid_grammar(self):
        lin = parse_grid("0:1:5:lin")
        assert len(lin) == 5 and lin[0] == 0.0 and lin[-1] == 1.0
        log = parse_grid("0.1:10:3:log")
        assert log[1] == pytest.approx(1.0)
        for bad in ("1:2:3", "2:1:5:lin", "0:1:0:lin", "0:1:5:geo",
                    "0:1:x:lin", f"0:1:{2 ** 62}:lin"):
            with pytest.raises(InvalidParameter):
                parse_grid(bad)

    def test_grid_points_that_round_together_are_one(self, capsys):
        assert parse_grid("1:1.0000000000000002:5:lin").tolist() == \
            [1.0, 1.0000000000000002]
        for argv in (["verify", "--ids", "theil"], ["if-curve", "--oracle",
                                                    "--id", "theil"]):
            assert main(argv + ["--dist", "exp:1", "--grid",
                                "1:1.0000000000000002:5:lin"]) == 0


class TestMeasureCommand:
    def test_golden_two_point_theil(self, tmp_path, capsys):
        data = write(tmp_path, "two.csv", "income\n1\n3\n")
        assert main(["measure", "--id", "theil", "--input", data]) == 0
        assert capsys.readouterr().out == "measure_id,value\ntheil,0.130812\n"

    def test_utf8_bom_is_skipped(self, tmp_path, capsys):
        # the byte-order mark spreadsheet programs put before the header
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffincome\n1.5\n2\n".encode("utf-8"))
        assert main(["measure", "--id", "theil", "--input", str(path),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_gini_exponential_six_decimals(self, capsys):
        assert main(["measure", "--id", "gini", "--dist", "exp:1"]) == 0
        assert capsys.readouterr().out == "measure_id,value\ngini,0.500000\n"

    def test_csv_input_equals_library_plugin_bit_exactly(self, tmp_path,
                                                         capsys):
        data = write(tmp_path, "s.csv", "2\n0.5\n7\n1\n")
        assert main(["measure", "--id", "theil", "--input", data,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cli_value = payload["results"][0]["value"]
        lib_value = functional_value(
            make_spec("theil"), Empirical.from_values([2.0, 0.5, 7.0, 1.0])).value
        assert cli_value == lib_value  # bit-exact through the JSON round trip

    def test_plugin_route_for_gini_and_qsr(self, tmp_path, capsys):
        data = write(tmp_path, "ten.csv",
                     "".join(f"{k}\n" for k in range(1, 11)))
        assert main(["measure", "--ids", "gini,qsr", "--input", data,
                     "--format", "json"]) == 0
        results = {r["measure_id"]: r["value"]
                   for r in json.loads(capsys.readouterr().out)["results"]}
        sample = Empirical.from_values(range(1, 11))
        from ineqif import gini, qsr

        assert results["gini"] == gini(sample)
        assert results["qsr"] == qsr(sample)

    def test_json_and_csv_values_agree(self, capsys):
        assert main(["measure", "--ids", "theil,gini", "--dist", "exp:1",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        assert main(["measure", "--ids", "theil,gini", "--dist", "exp:1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for row, line in zip(rows, lines):
            mid, text = line.split(",")
            assert mid == row["measure_id"]
            assert float(text) == pytest.approx(row["value"], abs=5e-7)

    def test_ids_all_expands_registry(self, capsys):
        assert main(["measure", "--ids", "all", "--dist", "exp:1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 8  # header + registry

    def test_report_metadata(self, capsys):
        assert main(["measure", "--id", "theil", "--dist", "exp:1",
                     "--format", "json", "--seed", "9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == "1"
        assert payload["registry_version"] == "1"
        assert payload["seed"] == 9
        assert payload["distribution"] == "exp:1"


class TestMeasureIds:
    def test_parameter_keeps_full_precision(self, capsys):
        assert main(["measure", "--ids", "ge:2.1234567", "--dist",
                     "lognormal:0,0.5", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        F = parse_distribution("lognormal:0,0.5")
        assert row["measure_id"] == "ge:2.1234567"
        assert row["value"] == functional_value(make_spec("ge", 2.1234567),
                                                F).value

    def test_parameter_next_to_a_boundary_stays_valid(self, capsys):
        # six significant digits would read atkinson:1, which is invalid
        assert main(["measure", "--ids", "atkinson:0.99999999", "--dist",
                     "lognormal:0,0.5", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["results"][0]
        assert row["measure_id"] == "atkinson:0.99999999"

    def test_compare_ge_computes_at_the_reported_alpha(self, capsys):
        assert main(["compare-ge", "--alpha", "2.1234567", "--dist",
                     "lognormal:0,0.5", "--grid", "0.5:2:3:lin",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        F = parse_distribution("lognormal:0,0.5")
        assert payload["alpha"] == 2.1234567
        for row in payload["rows"]:
            assert row["if_with_coeff"] == if_special("ge:2.1234567", F,
                                                      row["z"])

    @pytest.mark.parametrize("mid", ["ge:2", "ge:-1", "ge:0.5", "ge:1e-05",
                                     "ge:1e+06", "atkinson:0.5", "kolm:1",
                                     "ge:1234567", "ge:0.1234567",
                                     "kolm:1.0000000000000002"])
    def test_id_text_reads_back_as_its_parameter(self, mid):
        # ids whose 6-digit text is exact keep it; the rest keep every digit
        assert parse_measure_id(mid).id == mid


class TestDescriptors:
    def test_descriptor_reads_back_as_the_same_model(self, capsys):
        assert main(["measure", "--ids", "theil", "--dist",
                     "lognormal:0.7062741234,0.9255951", "--format",
                     "json"]) == 0
        text = json.loads(capsys.readouterr().out)["distribution"]
        assert text == "lognormal:0.7062741234,0.9255951"
        assert parse_distribution(text) == parse_distribution(
            "lognormal:0.7062741234,0.9255951")

    @pytest.mark.parametrize("spec", ["exp:1", "pareto:3,1", "exp:2e-05"])
    def test_short_descriptors_print_as_before(self, spec):
        assert parse_distribution(spec).descriptor() == spec


class TestExitCodes:
    def test_usage_requires_exactly_one_source(self, tmp_path):
        data = write(tmp_path, "x.csv", "1\n")
        assert main(["measure", "--id", "theil"]) == 1
        assert main(["measure", "--id", "theil", "--dist", "exp:1",
                     "--input", data]) == 1

    def test_usage_bad_measure_and_distribution(self):
        assert main(["measure", "--id", "zenga", "--dist", "exp:1"]) == 1
        assert main(["measure", "--id", "theil", "--dist", "exp:0"]) == 1
        assert main(["measure", "--id", "theil", "--dist", "nope:1"]) == 1

    @pytest.mark.parametrize("command", [
        "measure --ids ge:nan --dist exp:1",
        "measure --ids ge:inf --dist exp:1",
        "measure --ids ge:-inf --dist exp:1",
        "measure --ids atkinson:-inf --dist exp:1",
        "measure --ids kolm:inf --dist exp:1",
        "compare-ge --alpha nan --dist exp:1",
        "measure --ids theil --dist lognormal:nan,0.5",
        "measure --ids theil --dist uniform:0,inf",
        "measure --ids theil --dist pareto:3,inf",
        "measure --ids theil --dist sm:2,inf,3",
        "measure --ids theil --dist dirac:inf",
        "measure --ids theil --dist exp:inf",
    ])
    def test_non_finite_parameter_is_a_usage_error(self, command, capsys):
        assert main(command.split()) == 1
        assert "InvalidParameter" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "if-curve --id theil --dist exp:1 --grid 1:inf:3:lin",
        "if-curve --id theil --dist exp:1 --grid 0.5:inf:3:log",
        "if-curve --id theil --dist exp:1 --grid=-inf:1:3:lin",
        "if-curve --id theil --dist exp:1 --grid nan:1:3:lin",
        "if-curve --id theil --dist exp:1 --grid 1:nan:1:lin",
        "verify --ids theil --dist exp:1 --grid 1:inf:2:lin",
        "compare-ge --alpha 2 --dist exp:1 --grid 1:inf:2:lin",
    ])
    def test_non_finite_grid_bound_is_a_usage_error(self, command, capsys):
        assert main(command.split()) == 1
        assert "grid bounds must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-5"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        # an infinite --tol would pass the known-wrong appendix Gini row
        for command in (["verify", "--ids", "gini"],
                        ["compare-ge", "--alpha", "2"]):
            assert main(command + ["--dist", "uniform:0,1",
                                   f"--tol={tol}"]) == 1
            assert "--tol must be finite and > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "measure --ids theil --dist exp:1 --tol 1e-5",
        "variance --ids theil --dist exp:1 --tol 1e-5",
        "if-curve --id theil --dist exp:1 --tol 1e-5",
        "mc-study --id theil --dist exp:1 --tol 1e-5",
        "measure --ids theil --dist exp:1 --grid 1:2:2:lin",
        "variance --ids theil --dist exp:1 --grid 1:2:2:lin",
        "mc-study --id theil --dist exp:1 --grid 1:2:2:lin",
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, command,
                                                        capsys):
        # --tol is the oracle gate of verify and compare-ge; --grid is read
        # by if-curve, verify and compare-ge
        assert main(command.split()) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        f"if-curve --id theil --dist exp:1 --grid 0.1:1:{2 ** 62}:lin",
        f"mc-study --id theil --dist exp:1 --n {2 ** 62} --reps 2",
        f"mc-study --id theil --dist exp:1 --n 10 --reps {2 ** 62}",
    ])
    def test_size_numpy_cannot_allocate_is_a_usage_error(self, command,
                                                         capsys):
        assert main(command.split() + ["--format", "json"]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InvalidParameter"
        assert "must be at most" in error["message"]

    def test_memory_error_is_a_usage_error(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "mc_variance_study", exhausted)
        assert main(["mc-study", "--id", "theil", "--dist", "exp:1",
                     "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "MemoryError", "message": "cannot allocate"}

    def test_usage_unknown_flag(self):
        assert main(["measure", "--id", "theil", "--dist", "exp:1",
                     "--wat"]) == 1

    def test_numeric_failure_moment_divergence(self):
        assert main(["measure", "--id", "ge:2", "--dist",
                     "pareto:1.5,1"]) == 2

    def test_numeric_error_renders_json_object(self, capsys):
        rc = main(["measure", "--id", "ge:2", "--dist", "pareto:1.5,1",
                   "--format", "json"])
        assert rc == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "MomentDiverges"

    def test_tiny_scale_variance_is_the_unit_scale_variance(self, capsys):
        # h1'(mu) = -2 mu^-3 overflows at mu = 1.5e-150; the kernel reads
        # the ratio h1'(mu)/h1(mu) = -2/mu instead. GE is scale invariant.
        sigma2 = []
        for spec in ("uniform:1e-150,2e-150", "uniform:1,2"):
            rc, payload = _json_run(["variance", "--ids", "ge:-2", "--dist",
                                     spec], capsys)
            assert rc == 0
            sigma2.append(payload["results"][0]["sigma2"])
        assert sigma2[0] == pytest.approx(sigma2[1], rel=1e-9)

    def test_tiny_scale_theorem1_passes(self, capsys):
        rc, payload = _json_run(["verify", "--ids", "ge:-2", "--dist",
                                 "uniform:1e-150,2e-150"], capsys)
        assert rc == 0
        normative = [r for r in payload["rows"] if r["normative"]]
        assert [r["verdict"] for r in normative] == ["PASS"]

    def test_tiny_kolm_lever_is_exact(self, capsys):
        # h1(mu) = e^{-mu} ~ 1.5e-256 at mu = 589: its square underflows,
        # the two ratios of the lever do not. The reference is the 30-digit
        # mpmath variance of bench/reference.py.
        rc, payload = _json_run(["variance", "--ids", "kolm:1", "--dist",
                                 "sm:2,1000,3"], capsys)
        assert rc == 0
        assert payload["results"][0]["sigma2"] == pytest.approx(
            193515.0395629088, rel=1e-9)
        rc, payload = _json_run(["verify", "--ids", "kolm:1", "--dist",
                                 "sm:2,1000,3"], capsys)
        assert rc == 0
        assert payload["rows"][0]["verdict"] == "PASS"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_input_exits_one(self, tmp_path, capsys, kind):
        path = tmp_path / "incomes.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"income\n\xff\xfe1\n")
        rc = main(["measure", "--id", "theil", "--input", str(path),
                   "--format", "json"])
        assert rc == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InvalidParameter"
        assert str(path) in error["message"]

    def test_ingest_errors_exit_one(self, tmp_path):
        bad = write(tmp_path, "neg.csv", "1\n-2\n")
        assert main(["measure", "--id", "theil", "--input", bad]) == 1

    @pytest.mark.parametrize("text", ["income\n1.5\n2\n7\n",
                                      "income\n1.5\nabc\n7\n"])
    def test_piped_input_reads_as_the_file(self, tmp_path, text):
        # a pipe cannot be read twice: it takes the float line loop
        path = write(tmp_path, "incomes.csv", text)
        argv = ["measure", "--ids", "theil,gini", "--input"]
        piped = _run_cli(argv + ["/dev/stdin"], stdin=text.encode())
        from_file = _run_cli(argv + [path])
        assert (piped.returncode, piped.stdout) == \
            (from_file.returncode, from_file.stdout)

    @pytest.mark.parametrize("scaled, unit", [("exp:1e300", "exp:1"),
                                              ("exp:1e-300", "exp:1"),
                                              ("dirac:1e300", "dirac:1")])
    def test_qsr_variance_at_extreme_scale(self, scaled, unit, capsys):
        # the QSR is scale-free; d*d underflowed on exp:1e300 and q4*d
        # overflowed on dirac:1e300
        sigma2 = []
        for dist in (scaled, unit):
            rc, payload = _json_run(["variance", "--ids", "qsr", "--dist",
                                     dist], capsys)
            assert rc == 0
            sigma2.append(payload["results"][0]["sigma2"])
        assert sigma2[0] == pytest.approx(sigma2[1], rel=2e-14, abs=0)

    def test_gini_and_qsr_variances_near_the_second_moment_boundary(
            self, capsys):
        # both finite (E X^2 exists for k > 2), but the IF^2 quadrature
        # raised NonConvergence here; the references are 30-digit mpmath
        rc, payload = _json_run(["variance", "--ids", "gini,qsr", "--dist",
                                 "pareto:2.05,1"], capsys)
        assert rc == 0
        gini_row, qsr_row = payload["results"]
        assert gini_row["sigma2"] == pytest.approx(4.31779145719194688,
                                                   rel=1e-10)
        assert qsr_row["sigma2"] == pytest.approx(819.24431670467, rel=1e-10)

    def test_overflowing_measure_prints_only_its_error(self):
        # h1(mu) = mu^-2 overflows while T(F) is built
        proc = _run_cli("measure --ids ge:-2 --dist dirac:1e-300".split())
        assert (proc.returncode, proc.stderr) == (2, (
            b"error: ge:-2: DegenerateDenominator: h1(mu)=inf for ge:-2 "
            b"at mu=1e-300\n"))


class TestPerIdErrors:
    """measure and variance keep every row when one id fails."""

    DOLLARS = "income\n31000\n42000\n55000\n68000\n120000\n"

    def test_failing_id_keeps_the_other_rows(self, tmp_path, capsys):
        # kolm:1's h1(mu) = e^{-mu} underflows to 0 at mu = 63200
        data = write(tmp_path, "dollars.csv", self.DOLLARS)
        assert main(["measure", "--ids", "all", "--input", data,
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        rows = {r["measure_id"]: r for r in payload["results"]}
        assert list(rows) == list(DEFAULT_MEASURE_IDS)
        assert rows["kolm:1"]["value"] is None
        assert rows["kolm:1"]["error"].startswith("DegenerateDenominator: ")
        assert payload["error"]["type"] == "DegenerateDenominator"
        assert "kolm:1" in captured.err
        sample = ingest_csv(data)
        for mid, row in rows.items():
            if mid != "kolm:1":
                assert "error" not in row
                assert row["value"] == parse_measure_id(mid).evaluate(sample)

    def test_failing_id_in_csv_gets_an_error_column(self, tmp_path, capsys):
        data = write(tmp_path, "dollars.csv", self.DOLLARS)
        assert main(["measure", "--ids", "gini,kolm:1", "--input", data]) == 2
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "measure_id,value,error"
        assert lines[1] == "gini,0.258228,"
        assert lines[2].startswith("kolm:1,,DegenerateDenominator: ")

    def test_variance_keeps_the_other_rows(self, capsys):
        # ge:2's variance needs E X^4, which is infinite on pareto:3,1
        assert main(["variance", "--ids", "gini,ge:2", "--dist",
                     "pareto:3,1", "--format", "json"]) == 2
        gini_row, ge_row = json.loads(capsys.readouterr().out)["results"]
        assert gini_row["sigma2"] > 0 and "error" not in gini_row
        assert ge_row["sigma2"] is None
        assert ge_row["error"].startswith("MomentDiverges: ")

    def test_lognormal_at_income_scale(self, capsys):
        # the x-space quadrature returned -1, -10.125 and 10.125 here
        assert main(["measure", "--ids", "gini,theil,mld", "--dist",
                     "lognormal:10,0.5", "--format", "json"]) == 0
        values = [r["value"]
                  for r in json.loads(capsys.readouterr().out)["results"]]
        assert values == pytest.approx([math.erf(0.25), 0.125, 0.125],
                                       rel=1e-9)


class TestIfCurveCommand:
    @pytest.mark.parametrize("mid", DEFAULT_MEASURE_IDS)
    def test_oracle_values_are_real(self, mid, capsys):
        # the complex step evaluates T at a complex eps; only Im T/h leaves
        rc, payload = _json_run(["if-curve", "--id", mid, "--dist",
                                 "lognormal:0,0.5", "--oracle"], capsys)
        assert rc == 0 and not payload["point_errors"]
        for row in payload["rows"]:
            assert all(type(row[k]) is float
                       for k in ("z", "if_closed", "if_oracle", "abs_err"))

    def test_columns_and_agreement(self, capsys):
        assert main(["if-curve", "--id", "mld", "--dist", "exp:1",
                     "--grid", "0.5:2:3:lin", "--oracle"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z,if_closed,if_oracle,abs_err"
        assert len(lines) == 4
        for line in lines[1:]:
            abs_err = float(line.split(",")[3])
            assert abs_err <= 1e-5

    def test_byte_stable_across_runs(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["if-curve", "--id", "gini", "--dist", "uniform:0,1",
                "--grid", "0.1:0.9:5:lin", "--oracle"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_default_grid_has_twenty_log_points(self, capsys):
        assert main(["if-curve", "--id", "theil", "--dist", "exp:1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        zs = [row["z"] for row in payload["rows"]]
        assert len(zs) == 20
        assert zs == sorted(zs) and zs[0] > 0


class TestVerifyCommand:
    def test_all_normative_formulas_pass_on_exponential(self, capsys):
        assert main(["verify", "--dist", "exp:1", "--ids", "all",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        normative = [r for r in payload["rows"] if r["normative"]]
        assert normative and all(r["verdict"] == "PASS" for r in normative)

    def test_printed_typos_fail_off_unit_mean(self, capsys):
        assert main(["verify", "--dist", "uniform:0,1",
                     "--ids", "gini,mld,kolm:1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        verdicts = {(r["measure_id"], r["formula_source"]): r["verdict"]
                    for r in payload["rows"]}
        assert verdicts[("gini", "appendix_printed")] == "FAIL"
        assert verdicts[("mld", "section2_printed")] == "FAIL"
        assert verdicts[("kolm:1", "section2_printed")] == "FAIL"
        assert verdicts[("gini", "theorem1")] == "PASS"

    def test_divergent_pairs_are_skipped(self, capsys):
        assert main(["verify", "--dist", "exp:1", "--ids", "ge:-1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["verdict"] == "SKIP" for r in payload["rows"])

    @pytest.mark.parametrize("command", ["verify --ids theil",
                                         "compare-ge --alpha 2"])
    def test_gate_tolerance_defaults_to_1e_5(self, command, capsys):
        assert main(command.split() + ["--dist", "exp:1", "--grid",
                                       "1:2:2:lin", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-05

    def test_qsr_just_above_the_bottom_quintile_passes(self, capsys):
        # 1e-7 above Q(0.2) = log(1.25) on exp:1, where the closed form once
        # refused points within 1e-9 of a quintile: Richardson read -237
        # there, against the closed form's -35.474
        assert main(["verify", "--ids", "qsr", "--dist", "exp:1", "--grid",
                     "0.22314358:0.2231436:2:lin", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["verdict"] for r in rows] == ["PASS", "PASS"]

    def test_qsr_at_the_bottom_quintile_passes(self, capsys):
        # z = Q(0.2) = log(1.25): the IF is continuous there, and answers
        assert main(["verify", "--ids", "qsr", "--dist", "exp:1", "--grid",
                     "0.2231435513142097:0.2231435513142097:1:lin",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["verdict"] for r in rows] == ["PASS", "PASS"]

    def test_qsr_on_a_point_mass_still_fails(self, capsys):
        # qsr counts the atom at Q(0.2) = Q(0.8) = 2 in full, and its oracle
        # differentiates that; the closed form is the Lorenz-share QSR's IF
        assert main(["verify", "--ids", "qsr", "--dist", "dirac:2", "--grid",
                     "0:3:7:lin", "--format", "json"]) == 3
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[0]["formula_source"] == "theorem1"
        assert rows[0]["verdict"] == "FAIL"

    @pytest.mark.parametrize("spec", ["exp:2e-05", "pareto:3,33333.3",
                                      "lognormal:10.7,0.5", "sm:2,84900,3",
                                      "uniform:0,100000"])
    def test_dollar_scale_verdicts(self, spec, capsys):
        # mu ~ 5e4: a printed row passes exactly where its algebra is the
        # normative one. Kolm's h1(mu) = e^{-mu} underflows to 0 there, so
        # both its rows are skipped until the Kolm lever is read at unit
        # scale.
        rc, payload = _json_run(["verify", "--ids", "all", "--dist", spec],
                                capsys)
        assert rc == 0
        for r in payload["rows"]:
            if r["measure_id"] == "kolm:1":
                assert r["verdict"] == "SKIP"
                assert r["note"].startswith("h1(mu)=0.0 ")
            elif r["normative"]:
                assert (r["formula_source"], r["verdict"]) == (
                    "theorem1", "PASS"), r
            else:
                variant = {v.source: v for v in printed_variants(
                    r["measure_id"])}[r["formula_source"]]
                want = "PASS" if variant.matches_normative else "FAIL"
                assert r["verdict"] == want, r
        assert sum(r["measure_id"] == "kolm:1" for r in payload["rows"]) == 2
        assert [r["measure_id"] for r in payload["rows"]
                if r["normative"]] == list(DEFAULT_MEASURE_IDS)

    def test_normative_failure_exits_three(self, monkeypatch, capsys):
        broken = lambda T, F, z: 1e6
        monkeypatch.setattr(cli, "if_special", broken)
        rc = main(["verify", "--dist", "exp:1", "--ids", "theil"])
        assert rc == 3


class TestCompareGeCommand:
    def test_report_demonstrates_both_variants(self, capsys):
        assert main(["compare-ge", "--dist", "exp:1", "--alpha", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["with_coefficient_matches_oracle"] is True
        assert payload["without_coefficient_max_excess_over_tolerance"] > 10.0
        row = payload["rows"][0]
        assert set(row) == {"z", "if_with_coeff", "if_without_coeff",
                            "oracle", "abs_err_with", "abs_err_without"}

    def test_without_column_is_the_variant_row(self, capsys):
        assert main(["compare-ge", "--dist", "exp:1", "--alpha", "2",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        F = parse_distribution("exp:1")
        T = parse_measure_id("ge:2")
        row = {v.source: v for v in printed_variants(T)}["without_coefficient"]
        for r in rows:
            assert r["if_without_coeff"] == row.evaluate(F, r["z"], T.spec)
        assert main(["verify", "--dist", "exp:1", "--ids", "ge:2",
                     "--format", "json"]) == 0
        verdicts = {r["formula_source"]: r
                    for r in json.loads(capsys.readouterr().out)["rows"]}
        table = verdicts["without_coefficient"]
        assert table["normative"] is False and table["verdict"] == "FAIL"
        assert table["max_abs_err"] == max(r["abs_err_without"] for r in rows)


def _json_run(argv, capsys):
    rc = main(argv + ["--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestOneAdjudicationRoute:
    """verify and compare-ge read the oracle column of if_curve."""

    @pytest.mark.parametrize("spec", ["exp:1", "uniform:0,1",
                                      "lognormal:0,0.5"])
    def test_theorem1_row_is_the_with_column(self, spec, capsys):
        rc, verify = _json_run(["verify", "--dist", spec, "--ids", "ge:2"],
                               capsys)
        assert rc == 0
        rc, compare = _json_run(["compare-ge", "--dist", spec, "--alpha",
                                 "2"], capsys)
        assert rc == 0
        theorem1 = next(r for r in verify["rows"]
                        if r["formula_source"] == "theorem1")
        assert theorem1["max_abs_err"] == max(r["abs_err_with"]
                                              for r in compare["rows"])

    def test_oracle_column_is_the_if_curve_oracle(self, capsys):
        _, compare = _json_run(["compare-ge", "--dist", "exp:1", "--alpha",
                                "2"], capsys)
        _, curve = _json_run(["if-curve", "--dist", "exp:1", "--id", "ge:2",
                              "--oracle"], capsys)
        assert [(r["z"], r["oracle"]) for r in compare["rows"]] == \
            [(r["z"], r["if_oracle"]) for r in curve["rows"]]

    def test_point_mass_runs_on_one_point(self, capsys):
        rc, verify = _json_run(["verify", "--dist", "dirac:1", "--ids",
                                "ge:2"], capsys)
        assert rc == 0
        assert verify["rows"][0]["verdict"] == "PASS"
        rc, compare = _json_run(["compare-ge", "--dist", "dirac:1",
                                 "--alpha", "2"], capsys)
        assert rc == 0
        rc, curve = _json_run(["if-curve", "--dist", "dirac:1", "--id",
                               "ge:2", "--oracle"], capsys)
        assert rc == 0
        assert [r["z"] for r in compare["rows"]] == [1.0]
        assert [r["z"] for r in curve["rows"]] == [1.0]

    def test_failing_measure_is_reported_before_point_errors(self, capsys):
        # GE(-1) diverges on uniform:0,1; z = 0 is also outside h's domain
        rc, payload = _json_run(["compare-ge", "--dist", "uniform:0,1",
                                 "--alpha", "-1", "--grid", "0:1:3:lin"],
                                capsys)
        assert rc == 2
        assert payload["error"]["type"] == "MomentDiverges"

    def test_non_finite_if_is_never_agreement(self, capsys):
        rc, payload = _json_run(["verify", "--dist", "pareto:3,1", "--ids",
                                 "atkinson:-2", "--grid",
                                 "1e-200:1e-160:2:log"], capsys)
        assert rc == 0
        theorem1 = payload["rows"][0]
        assert theorem1["verdict"] == "SKIP"
        # the oracle's IF is not finite at either point either
        assert theorem1["note"] == "no oracle-evaluable grid points"
        rc, curve = _json_run(["if-curve", "--dist", "pareto:3,1", "--id",
                               "atkinson:-2", "--oracle", "--grid",
                               "1e-200:1e-160:2:log"], capsys)
        assert rc == 0
        assert curve["rows"][1]["if_closed"] is None
        assert {"index": 1, "message": "closed: IF is inf at z=1e-160"} \
            in curve["point_errors"]

    def test_failing_formula_leaves_a_null_cell(self, capsys):
        # the without-coefficient display reads mu^3 ~ 3.4e309, which
        # overflows; the Theorem-1 kernel and the oracle stay finite
        rc, payload = _json_run(["compare-ge", "--dist", "pareto:3,1e103",
                                 "--alpha", "2", "--grid",
                                 "1e103:1e104:2:log"], capsys)
        assert rc == 0
        row = payload["rows"][1]
        assert row["if_without_coeff"] is None
        assert row["abs_err_without"] is None
        assert row["oracle"] is not None
        assert payload["with_coefficient_matches_oracle"] is True

    def test_huge_level_is_finite(self, capsys):
        # (h(z) - E h)/h1(mu) overflows at z = 1e-154; tau'(I)/h1(mu) = 0.375
        # folded in first keeps the IF 3.75e307, as the oracle reads it
        rc, curve = _json_run(["if-curve", "--dist", "pareto:3,1", "--id",
                               "ge:-2", "--oracle", "--grid",
                               "1e-156:1e-154:3:log"], capsys)
        assert rc == 0
        row = curve["rows"][2]
        assert row["if_closed"] == pytest.approx(3.75e307, rel=1e-12)
        assert row["if_oracle"] == pytest.approx(3.75e307, rel=1e-12)

    def test_no_oracle_point_is_no_match(self, capsys):
        rc, payload = _json_run(["compare-ge", "--dist", "uniform:0,1",
                                 "--alpha", "-0.5", "--grid", "0:0:1:lin"],
                                capsys)
        assert rc == 0
        assert payload["rows"] == []
        assert payload["with_coefficient_matches_oracle"] is False

    @pytest.mark.parametrize("argv", [
        "verify --dist pareto:3,1 --ids atkinson:-2 --grid 1e-200:1:3:log",
        "compare-ge --dist pareto:3,1 --alpha -2 --grid 1e-200:1:3:log",
    ])
    def test_overflowing_display_is_no_traceback(self, argv, capsys):
        rc, _ = _json_run(argv.split(), capsys)
        assert rc in (0, 2, 3)


    @pytest.mark.parametrize("argv", [
        "if-curve --oracle --dist pareto:3,1 --id atkinson:-2 "
        "--grid 1e-200:1e-160:2:log",
        "compare-ge --dist pareto:3,1 --alpha -2 --grid 1e-156:1e-154:3:log",
        "verify --ids ge:-2 --dist uniform:1e-150,2e-150",
        "variance --ids qsr --dist dirac:1e300",
    ])
    def test_overflow_prints_no_numpy_warning(self, argv):
        proc = _run_cli(argv.split())
        assert (proc.returncode, proc.stderr) == (0, b"")


_FUZZ_IDS = ["theil", "mld", "ge:2", "ge:-2", "ge:-0.5", "atkinson:-2",
             "atkinson:0.5", "champernowne", "kolm:1", "gini", "qsr"]


class TestGridFuzz:
    """The --grid grammar over the three oracle views: exit codes 0-3 only,
    never a traceback, and JSON output that parses."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(command=st.sampled_from(["verify", "compare-ge", "if-curve"]),
           mid=st.sampled_from(_FUZZ_IDS),
           alpha=st.sampled_from([2.0, 0.5, -0.5, -2.0]),
           dist=st.sampled_from(["pareto:3,1", "exp:1", "lognormal:0,0.5"]),
           bounds=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2),
           count=st.integers(1, 4),
           spacing=st.sampled_from(["log", "lin"]))
    @example(command="verify", mid="atkinson:-2", alpha=2.0,
             dist="pareto:3,1", bounds=[1e-200, 1.0], count=3, spacing="log")
    @example(command="compare-ge", mid="ge:2", alpha=-2.0,
             dist="pareto:3,1", bounds=[1e-200, 1.0], count=3, spacing="log")
    def test_exit_codes_and_json(self, command, mid, alpha, dist, bounds,
                                 count, spacing):
        lo, hi = sorted(bounds)
        argv = {"verify": ["verify", "--ids", mid],
                "compare-ge": ["compare-ge", f"--alpha={alpha!r}"],
                "if-curve": ["if-curve", "--oracle", "--id", mid]}[command]
        argv += ["--dist", dist, f"--grid={lo!r}:{hi!r}:{count}:{spacing}",
                 "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3)
        assert json.loads(out.getvalue())

class TestMcStudyCommand:
    def test_byte_stable_and_well_formed(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        argv = ["mc-study", "--id", "mld", "--dist", "exp:1",
                "--n", "500", "--reps", "20", "--seed", "11"]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        header, row = open(out1).read().strip().splitlines()
        assert header.startswith("measure_id,distribution,n,reps,mc_variance")
        assert row.split(",")[0] == "mld"

    @pytest.mark.parametrize("argv", [
        "mc-study --id gini --dist exp:1 --n 500 --reps 20",
        "mc-study --id qsr --dist uniform:0,1 --n 500 --reps 20",
    ])
    def test_csv_columns_are_the_json_fields(self, argv, capsys):
        assert main(argv.split()) == 0
        header = capsys.readouterr().out.splitlines()[0].split(",")
        assert header == ["measure_id", "distribution", "n", "reps",
                          "mc_variance", "if_variance", "ratio", "seed",
                          "stream_id", "rejections", "degenerate"]
        rc, payload = _json_run(argv.split(), capsys)
        assert rc == 0
        assert set(header) <= set(payload)

    @pytest.mark.parametrize("argv, mc_variance", [
        ("mc-study --id gini --dist lognormal:0,0.5 --n 1000 --reps 50 "
         "--seed 42", 0.044874603354139446),
        ("mc-study --id theil --dist exp:1 --n 20000 --reps 5 "
         "--seed 99999999999999999999999999", 0.16351056079776177),
        ("mc-study --id qsr --dist sm:3,1,3 --n 333 --reps 97 --seed 0",
         15.374304291843872),
    ])
    def test_golden_mc_variance(self, argv, mc_variance, capsys):
        # pinned before the streams were keyed in one pass: any move of the
        # stream derivation changes these bits
        rc, payload = _json_run(argv.split(), capsys)
        assert rc == 0
        assert payload["mc_variance"] == mc_variance

    def test_negative_seed_is_a_usage_error(self, capsys):
        argv = ["mc-study", "--id", "gini", "--dist", "exp:1", "--seed", "-1"]
        assert main(argv) == 1
        assert "InvalidParameter" in capsys.readouterr().err
        rc, payload = _json_run(argv, capsys)
        assert rc == 1
        assert payload["error"]["type"] == "InvalidParameter"


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        out = str(tmp_path / "report.csv")
        assert main(["measure", "--id", "theil", "--dist", "exp:1",
                     "--out", out]) == 0
        assert os.path.exists(out)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".ineqif")]
        assert leftovers == []

    @pytest.mark.parametrize("kind", ["missing_directory", "directory"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, kind):
        out = tmp_path / "missing" / "r.csv"
        if kind == "directory":
            out = tmp_path / "r.csv"
            out.mkdir()
        rc = main(["measure", "--id", "theil", "--dist", "exp:1",
                   "--out", str(out), "--format", "json"])
        assert rc == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "InvalidParameter"
        assert f"cannot write output file {str(out)!r}" in error["message"]
        assert [f for f in os.listdir(tmp_path) if f.startswith(".ineqif")] == []
