import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rzero
from rzero import cli, validation
from rzero.cli import (
    EXIT_CONTOUR_ZERO,
    EXIT_EVAL_FAIL,
    EXIT_OK,
    EXIT_VALIDATE_FAIL,
    EXIT_WINDING,
    RunConfig,
    ZERO_COLUMNS,
    build_parser,
    config_from_args,
    emit_rows,
    main,
    parse_complex,
    parse_rows,
)
from rzero.errors import ContourZeroError, NewtonError, NonIntegerWindingError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_parse_complex_j(self):
        assert parse_complex("0.5+25j") == 0.5 + 25j

    def test_parse_complex_i(self):
        assert parse_complex("2 + 30i") == 2 + 30j

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_complex("banana")


class TestEval:
    def test_single_point_in_band(self, capsys):
        code, out, _ = run(capsys, "--command", "eval", "--point", "2+10j")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 1
        value = complex(float(rows[0]["re"]), float(rows[0]["im"]))
        assert abs(value - 1.0) <= 0.75

    def test_malformed_point(self, capsys):
        code, _, err = run(capsys, "--command", "eval", "--point", "nope")
        assert code == EXIT_EVAL_FAIL
        assert "bad arguments" in err

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_defaults_are_run_config_defaults(self, command):
        args = build_parser().parse_args(["--command", command])
        assert config_from_args(args) == RunConfig(command=command)

    def test_missing_point(self, capsys):
        code, _, err = run(capsys, "--command", "eval")
        assert code == EXIT_EVAL_FAIL

    def test_out_of_range_point_exits_2(self, capsys):
        # |R(-300 + 5000i)| = e^999 has no double; the row is refused, not
        # printed saturated, and the message carries log R
        code, out, err = run(capsys, "--command", "eval",
                             "--point=-300+5000j")
        assert code == EXIT_EVAL_FAIL
        assert out == ""
        assert "log R = 998.9" in err
        code, out, _ = run(capsys, "--command", "eval", "--point=-100+100j")
        assert code == EXIT_OK
        assert float(parse_rows(out)[0]["abs"]) == pytest.approx(2.086e60,
                                                                 rel=1e-3)

    def test_grid_deterministic_order(self, capsys):
        argv = ["--command", "eval", "--point", "2+30j", "--grid-n", "3",
                "--grid-step", "0.5"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 9
        keys = [(float(r["t"]), float(r["sigma"])) for r in rows]
        assert keys == sorted(keys)
        code2, out2, _ = run(capsys, *argv)
        assert out2 == out


class TestCount:
    def test_grid_rows_nondecreasing(self, capsys):
        code, out, _ = run(capsys, "--command", "count", "--t-min", "20",
                           "--t-max", "60", "--t-step", "20")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert [float(r["big_t"]) for r in rows] == [20.0, 40.0, 60.0]
        counts = [int(r["count"]) for r in rows]
        assert counts == sorted(counts)

    def test_count_matches_zeros_listing(self, capsys):
        code, out, _ = run(capsys, "--command", "count", "--t-min", "60",
                           "--t-max", "60", "--t-step", "10")
        rows = parse_rows(out)
        n_count = int(rows[0]["count"])
        code, out, _ = run(capsys, "--command", "zeros", "--t-min", "10",
                           "--t-max", "60")
        zs = parse_rows(out)
        assert code == EXIT_OK
        assert n_count == len(zs)

    def test_certificates_cell(self, capsys):
        code, out, _ = run(capsys, "--command", "count", "--t-min", "100",
                           "--t-max", "150", "--t-step", "50")
        assert code == EXIT_OK
        strip_row, curve_row = parse_rows(out)
        assert strip_row["certificates"] == "top:-"
        top, turns = curve_row["certificates"].split(";")
        assert top.startswith("top:") and turns.startswith("turns:")
        assert abs(float(turns[len("turns:"):])) <= float(top[len("top:"):])

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, "--command", "count", "--t-min", "5",
                           "--t-max", "9", "--t-step", "1")
        assert code == EXIT_EVAL_FAIL

    @pytest.mark.parametrize("command", ["count", "table"])
    def test_grid_reaching_below_base_height_refused(self, capsys, command):
        # a height at or below DESK_T0 is refused, not dropped from the grid
        code, out, err = run(capsys, "--command", command, "--t-min", "5",
                             "--t-max", "20", "--t-step", "5")
        assert code == EXIT_EVAL_FAIL and out == ""
        assert len(err.splitlines()) == 1 and "DESK_T0" in err

    @pytest.mark.parametrize("command", ["count", "table"])
    def test_default_grid_starts_above_base_height(self, capsys, command):
        # with no --t-min the grid starts one step above DESK_T0 = 10
        code, out, _ = run(capsys, "--command", command)
        assert code == EXIT_OK
        big_ts = [float(r["big_t"]) for r in parse_rows(out)]
        assert big_ts == [20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
                          100.0]
        assert RunConfig(command=command, t_step=5.0).t_min == 15.0
        assert RunConfig(command="zeros").t_min == 10.0


class TestZerosCommand:
    def test_schema_and_footer(self, capsys):
        code, out, _ = run(capsys, "--command", "zeros", "--t-min", "10",
                           "--t-max", "40", "--box-left", "-4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "# rzero v1"
        assert lines[1].split(",") == ZERO_COLUMNS
        rows = parse_rows(out)
        assert len(rows) == 2
        gammas = [float(r["gamma"]) for r in rows]
        assert gammas == sorted(gammas)
        assert any("fraction_beta_gt_half" in ln for ln in lines)

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run(capsys, "--command", "zeros", "--t-min", "10",
                           "--t-max", "40", "--box-left", "-4",
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["columns"] == ZERO_COLUMNS
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["winding_certificate"] == 1


    def test_window_at_1e7_certified(self, capsys):
        # R's error_estimate at these zeros is about 1e-6 with |R'| ~ 7, so
        # no circle of radius 10 (step + 1e-12) could certify them; the
        # circle starts at 10 error_estimate / |R'| instead.  The window
        # holds N(10^7 + 2) - N(10^7) = 2 zeros
        code, out, _ = run(capsys, "--command", "zeros",
                           "--t-min", "10000000", "--t-max", "10000002",
                           "--box-left", "-300")
        assert code == EXIT_OK
        rows = parse_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert int(row["winding_certificate"]) == 1
            assert 1e-7 < float(row["enclosure_radius"]) < 1e-4
        assert "# unresolved_clusters = 0" in out.splitlines()


class TestTable:
    def test_sqrt_columns(self, capsys):
        code, out, _ = run(capsys, "--command", "table", "--t-min", "30",
                           "--t-max", "60", "--t-step", "30")
        assert code == EXIT_OK
        rows = parse_rows(out)
        for r in rows:
            r_smooth = float(r["r_smooth"])
            assert float(r["r_plus_sqrt"]) == pytest.approx(
                r_smooth + float(r["sqrt_term"]), rel=1e-12)
            assert float(r["residual"]) == pytest.approx(
                int(r["count"]) - float(r["main_value"]), abs=1e-9)
        assert "sqrt_fit_coefficient" in out


class TestValidate:
    ARGS = ("--command", "validate", "--samples", "30", "--seed", "11")

    def test_all_suites_listed(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == EXIT_OK
        for name in ("identity", "functional_equation", "eta_branch",
                     "backlund", "left_region_surrogate"):
            assert name in out
        assert out.count("PASS") == 5

    def test_seeded_determinism(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2

    def test_tightened_tolerance_fails(self, monkeypatch, capsys):
        # a suite bound below its worst error fails validate with exit 1
        monkeypatch.setattr(validation, "SUITES", [
            (name, suite, samples, 1e-15 if name == "identity" else bound)
            for name, suite, samples, bound in validation.SUITES])
        code, out, err = run(capsys, "--command", "validate", "--samples",
                             "30", "--seed", "11")
        assert code == EXIT_VALIDATE_FAIL
        assert "FAIL" in out
        assert "failed suites" in err

    def test_out_file_replaces_stdout(self, capsys, tmp_path):
        path = tmp_path / "validate.txt"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text(encoding="utf-8").count("PASS") == 5


class TestRoundTrip:
    def test_emitted_csv_parses_back(self, tmp_path, capsys):
        out_path = tmp_path / "zeros.csv"
        code, _, _ = run(capsys, "--command", "zeros", "--t-min", "10",
                         "--t-max", "40", "--box-left", "-4",
                         "--out", str(out_path))
        assert code == EXIT_OK
        text = out_path.read_text()
        rows = parse_rows(text)
        assert len(rows) == 2
        # 17 significant digits round-trip binary64 exactly
        beta = float(rows[0]["beta"])
        assert beta == pytest.approx(-1.5728670009776071, abs=1e-12)

    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1, max_size=8))
    def test_float_round_trip(self, values):
        rows = [{"x": v} for v in values]
        config = RunConfig(command="eval", output_format="csv",
                           output_path=None)
        import io
        import contextlib
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            text = emit_rows(rows, ["x"], config)
        parsed = parse_rows(text)
        assert [float(r["x"]) for r in parsed] == values

    def test_json_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "table.json"
        code, _, _ = run(capsys, "--command", "count", "--t-min", "30",
                         "--t-max", "30", "--t-step", "10",
                         "--format", "json", "--out", str(out_path))
        assert code == EXIT_OK
        doc = json.loads(out_path.read_text())
        row = doc["rows"][0]
        assert row["count"] == 1
        assert row["smooth_term"] == pytest.approx(
            row["main_value"] + row["sqrt_term"], rel=1e-15)


class TestConfig:
    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            RunConfig(command="count", t_min=50.0, t_max=10.0)

    def test_format_validated(self):
        with pytest.raises(ValueError):
            RunConfig(command="count", output_format="xml")

    def test_finite_validated(self):
        with pytest.raises(ValueError):
            RunConfig(command="count", box_left=float("inf"))

    @pytest.mark.parametrize("t_step", [0.0, -5.0, -0.0])
    def test_t_step_positive(self, t_step):
        with pytest.raises(ValueError, match="--t-step"):
            RunConfig(command="table", t_min=20.0, t_max=40.0, t_step=t_step)

    @pytest.mark.parametrize("grid_n", [0, -1, 2, 4])
    def test_grid_n_odd_and_positive(self, grid_n):
        with pytest.raises(ValueError, match="--grid-n"):
            RunConfig(command="eval", point=0.5 + 50j, grid_n=grid_n)


class TestExitCodes:
    @pytest.mark.parametrize("error, expected", [
        (ContourZeroError, EXIT_CONTOUR_ZERO),
        (NonIntegerWindingError, EXIT_WINDING),
        (NewtonError, EXIT_EVAL_FAIL),
    ])
    @pytest.mark.parametrize("command, target", [
        ("count", "residual_table"),
        ("table", "residual_table"),
        ("zeros", "locate_zeros"),
    ])
    def test_error_maps_to_exit_code(self, monkeypatch, capsys, command,
                                     target, error, expected):
        def fail(*args, **kwargs):
            raise error("forced failure")

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run(capsys, "--command", command, "--t-min", "20",
                             "--t-max", "40", "--t-step", "20")
        assert code == expected
        assert out == ""
        assert "forced failure" in err

    @pytest.mark.parametrize("tol", ["0", "-0.001", "nan", "inf", "0.002"])
    @pytest.mark.parametrize("command", ["count", "table", "zeros",
                                         "validate"])
    def test_bad_tol_exits_2(self, monkeypatch, capsys, command, tol):
        # there is no --tol: the parser refuses it as an unknown flag
        def never(*args, **kwargs):
            raise AssertionError("ran with a rejected --tol")

        monkeypatch.setattr(cli, "residual_table", never)
        monkeypatch.setattr(cli, "locate_zeros", never)
        monkeypatch.setitem(cli._COMMANDS, "validate", never)
        with pytest.raises(SystemExit) as exit_:
            main(["--command", command, "--t-min", "20", "--t-max", "40",
                  "--t-step", "20", "--tol", tol])
        captured = capsys.readouterr()
        assert exit_.value.code == EXIT_EVAL_FAIL
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize("command", ["count", "table", "zeros"])
    @pytest.mark.parametrize("t_step", ["0", "-5"])
    def test_non_positive_t_step_exits_2(self, capsys, command, t_step):
        code, out, err = run(capsys, "--command", command, "--t-min", "20",
                             "--t-max", "40", "--t-step", t_step)
        assert code == EXIT_EVAL_FAIL
        assert out == ""
        assert len(err.splitlines()) == 1 and "--t-step" in err

    @pytest.mark.parametrize("grid_n", ["0", "2"])
    def test_even_or_empty_grid_exits_2(self, capsys, grid_n):
        code, out, err = run(capsys, "--command", "eval", "--point", "0.5+50j",
                             "--grid-n", grid_n)
        assert code == EXIT_EVAL_FAIL
        assert out == ""
        assert len(err.splitlines()) == 1 and "--grid-n" in err

    @pytest.mark.parametrize("flag, args", [
        ("--samples", ["--command", "validate", "--samples", "-3"]),
        ("--grid-step", ["--command", "eval", "--point", "0.5+50j",
                         "--grid-n", "3", "--grid-step", "0"]),
        ("--grid-step", ["--command", "eval", "--point", "0.5+50j",
                         "--grid-step", "-0.5"]),
        ("--min-size", ["--command", "zeros", "--t-min", "10",
                        "--t-max", "20", "--min-size", "0"]),
        ("--min-size", ["--command", "zeros", "--t-min", "10",
                        "--t-max", "20", "--min-size", "-0.001"]),
    ])
    def test_out_of_range_flag_exits_2(self, capsys, flag, args):
        code, out, err = run(capsys, *args)
        assert code == EXIT_EVAL_FAIL
        assert out == ""
        assert len(err.splitlines()) == 1 and flag in err

    def test_validate_keeps_suite_tolerance(self, capsys):
        # every validate line reports its suite's own bound
        code, out, _ = run(capsys, "--command", "validate", "--samples", "3")
        assert code == EXIT_OK
        bounds = [line.split("bound=")[1] for line in out.splitlines()]
        assert bounds == [f"{bound:.3e}"
                          for *_, bound in validation.SUITES]

    def test_degenerate_box_exits_2_without_traceback(self):
        # a separate interpreter, so that an uncaught exception would show
        # as a traceback and exit code 1
        src = str(pathlib.Path(rzero.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "rzero.cli", "--command", "zeros",
             "--t-min", "10", "--t-max", "10"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_EVAL_FAIL
        assert "degenerate box" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
