import json
import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ineqif.cli as cli
from ineqif import Empirical, make_spec, plugin_estimate
from ineqif.cli import ingest_csv, main, parse_distribution, parse_grid
from ineqif.errors import (
    EmptyInput,
    IneqError,
    InvalidParameter,
    NegativeIncome,
    ParseError,
)


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


class TestIngestMatchesLineLoop:
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
        path = tmp_path_factory.mktemp("ingest") / "incomes.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(ingest_csv, str(path)) == \
            _outcome(_ingest_by_line_loop, str(path))


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
                    "0:1:x:lin"):
            with pytest.raises(InvalidParameter):
                parse_grid(bad)


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
        lib_value = plugin_estimate(make_spec("theil"),
                                    Empirical.from_values([2.0, 0.5, 7.0, 1.0]))
        assert cli_value == lib_value  # bit-exact through the JSON round trip

    def test_plugin_route_for_gini_and_qsr(self, tmp_path, capsys):
        data = write(tmp_path, "ten.csv",
                     "".join(f"{k}\n" for k in range(1, 11)))
        assert main(["measure", "--ids", "gini,qsr", "--input", data,
                     "--format", "json"]) == 0
        results = {r["measure_id"]: r["value"]
                   for r in json.loads(capsys.readouterr().out)["results"]}
        sample = Empirical.from_values(range(1, 11))
        from ineqif import gini_plugin, qsr_plugin

        assert results["gini"] == gini_plugin(sample)
        assert results["qsr"] == qsr_plugin(sample)

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


class TestIfCurveCommand:
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

    def test_normative_failure_exits_three(self, monkeypatch, capsys):
        broken = lambda T, F, z, tol: 1e6
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


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        out = str(tmp_path / "report.csv")
        assert main(["measure", "--id", "theil", "--dist", "exp:1",
                     "--out", out]) == 0
        assert os.path.exists(out)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".ineqif")]
        assert leftovers == []
