"""Reporting artifacts and the dp4 command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from dp4jigsaw import constants, jigsaw, reporting, surface, torsor
from dp4jigsaw.cli import main
from dp4jigsaw.errors import DegenerateDesignMatrix, IoFailure
from dp4jigsaw.geometry import _simplex
from tests_support import CONSTANTS_DIGESTS, whole_count_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: sha256 of the tuple stream of `dp4 torsor-count --bound 200 --tuples`
TUPLES_200 = "c2218dbb5f71d9883eb8f2fe401b917b6d3c6f17c11eb99424a80248abae7ad9"


def parse_counts_csv(text):
    """The CountRows of a counts.csv: the inverse of reporting.emit_report."""
    header, *lines = text.splitlines()
    assert header == reporting.CSV_HEADER

    def opt(x):
        return float(x) if x else None
    return [reporting.CountRow(F(b), int(n), opt(p), opt(r), m, float(e))
            for b, n, p, r, m, e in (line.split(",") for line in lines)]


class TestFit:
    def test_exact_model_recovery(self):
        samples = []
        for b in (1e2, 1e3, 1e4, 1e5):
            n = b * (2 * math.log(b) ** 2 + 3 * math.log(b) + 5)
            samples.append((b, n))
        fit = reporting.fit_log_quadratic(samples)
        assert fit.c2 == pytest.approx(2, rel=1e-9)
        assert fit.c1 == pytest.approx(3, rel=1e-9)
        assert fit.c0 == pytest.approx(5, rel=1e-9)
        assert fit.residual < 1e-9

    def test_pure_quadratic(self):
        c = 12 / math.pi ** 2
        samples = [(b, c * b * math.log(b) ** 2) for b in (1e2, 1e3, 1e4, 1e5, 1e6)]
        fit = reporting.fit_log_quadratic(samples)
        assert fit.c2 == pytest.approx(c, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateDesignMatrix):
            reporting.fit_log_quadratic([(10, 1), (20, 2), (30, 3)])
        with pytest.raises(DegenerateDesignMatrix):
            reporting.fit_log_quadratic([(10, 1), (10, 1), (20, 2), (30, 3)])
        with pytest.raises(DegenerateDesignMatrix):
            reporting.fit_log_quadratic([(1, 1), (10, 1), (20, 2), (30, 3)])
        with pytest.raises(DegenerateDesignMatrix):  # distinct, but rank 1 in floats
            reporting.fit_log_quadratic([(1e6 + k * 1e-9, k) for k in range(4)])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            reporting.CountRow(F(1), 4, None, None, "direct-divisor", 0.0),
            reporting.CountRow(F(100), 5412, 2578.5340421027786,
                               2.0988669963754085, "torsor-fast", 0.125),
        ]
        reporting.emit_report(rows, ("csv",), tmp_path)
        text = (tmp_path / "counts.csv").read_text()
        assert text.splitlines()[0] == "B,count,predicted,ratio,method,elapsed_s"
        assert text.splitlines()[1].startswith("1,4,,,direct-divisor")
        assert parse_counts_csv(text) == rows

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_streamed_report_equals_the_whole_text(self, tmp_path, n):
        """The bytes of json.dumps and of one join, at signed zeros, inf, nan
        and methods that JSON escapes."""
        floats = [None, 0.0, -0.0, 1e-05, 0.1, 2578.5340421027786, 1e16, 1.5e300,
                  math.inf, -math.inf, math.nan]
        methods = ["direct-divisor", "torsor-lifted", "caf\u00e9 \"q\"\\"]
        rows = [reporting.CountRow(F(i + 1, 1 + i % 3), i * i, floats[i % 11],
                                   floats[(i + 5) % 11], methods[i % 3], float(i % 7) / 8)
                for i in range(n)]
        reporting.emit_report(rows, ("json", "csv"), tmp_path)
        for name, text in whole_count_report(rows).items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name

    def test_report_writes_only_the_requested_formats(self, tmp_path):
        rows = [reporting.CountRow(F(1), 4, None, None, "direct-divisor", 0.0)]
        assert reporting.emit_report(rows, ("json",), tmp_path) == [
            os.path.join(tmp_path, "counts.json")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.json"]

    def test_empty_report_refused(self):
        with pytest.raises(IoFailure):
            reporting.emit_report([], ("csv",), ".")

    def test_svg_chart(self):
        svg = reporting.svg_line_chart(
            [("r", [(1.0, 1.0), (2.0, 1.5), (3.0, 1.2)])], "t", "x", "y")
        assert svg.startswith("<svg") and "polyline" in svg


def run_cli(args, outdir):
    return main(["--output", str(outdir)] + args)


def src_env():
    """The environment of a child process that imports this tree's dp4jigsaw."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestCli:
    def test_jigsaw_command(self, tmp_path, capsys):
        assert run_cli(["jigsaw", "--q", "1"], tmp_path) == 0
        payload = json.loads((tmp_path / "jigsaw.json").read_text())
        assert payload["alpha_sum"] == "1/6"
        assert payload["degenerate_multisets"] == ["36,36"]
        assert payload["degenerate_report"]["reference_empty_interior_face"] == "57,57"

    def test_modp_command(self, tmp_path, capsys):
        assert run_cli(["modp", "--p", "5"], tmp_path) == 0
        assert "5,30,30,ok" in capsys.readouterr().out

    @pytest.mark.parametrize("p", [surface.MAX_MODP_PRIME + 8, 1009])
    def test_modp_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, p):
        def walked(*args):
            raise AssertionError("the census evaluated the forms above MAX_MODP_PRIME")
        monkeypatch.setattr(surface, "_forms", walked)
        assert run_cli(["modp", "--p", str(p)], tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(surface.MAX_MODP_PRIME) in captured.err

    def test_modp_default_primes(self, tmp_path, capsys):
        assert run_cli(["modp"], tmp_path) == 0
        assert capsys.readouterr().out == (
            "2,6,6,ok\n3,12,12,ok\n5,30,30,ok\n7,56,56,ok\n11,132,132,ok\n"
            "13,182,182,ok\nZ points of height <= 20 on the surface: ok\n")

    def test_count_command_and_csv(self, tmp_path):
        assert run_cli(["count", "--bound", "1", "--bound", "50"], tmp_path) == 0
        rows = parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert rows[0].bound == 1 and rows[0].count == 4
        assert rows[1].bound == 50 and rows[1].count == 2128

    def test_compare_command(self, tmp_path, capsys):
        assert run_cli(["compare", "--bound", "150"], tmp_path) == 0
        assert "agree" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", ["1/2", "0.999"])
    def test_compare_below_one_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                       bound):
        def started(*args):
            raise AssertionError("counting started for a bound below 1")
        monkeypatch.setattr(surface, "direct_height_counts", started)
        monkeypatch.setattr(torsor, "torsor_height_counts", started)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["compare", "--bound", bound], tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_compare_names_the_first_ten_mismatches(self, tmp_path, monkeypatch, capsys):
        lifted = torsor.torsor_height_counts

        def off_from_7(bound):
            hist = lifted(bound)
            hist[7:] += 1
            return hist
        monkeypatch.setattr(torsor, "torsor_height_counts", off_from_7)
        assert run_cli(["compare", "--bound", "30"], tmp_path) == 1
        assert capsys.readouterr().out == (
            f"MISMATCH at B in {list(range(7, 17))} (showing up to 10)\n")

    def test_compare_at_bound_one(self, tmp_path, capsys):
        assert run_cli(["compare", "--bound", "1"], tmp_path) == 0
        rows = parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert [(r.bound, r.count, r.method) for r in rows] == [
            (1, 4, "direct-divisor"), (1, 4, "torsor-lifted")]

    def test_slices_command(self, tmp_path):
        assert run_cli(["slices", "--a1", "1/5"], tmp_path) == 0
        payload = json.loads((tmp_path / "slices.json").read_text())
        assert payload["censuses"][0]["positive_count"] == 7

    def test_constant_command(self, tmp_path):
        assert run_cli(["constant", "--field", "Q", "--prime-bound", "1000"],
                       tmp_path) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        assert payload["symbolic"]["c"] == "12/pi^2"
        assert payload["log_exponent"] == 2

    def test_alpha_command(self, tmp_path, capsys):
        assert run_cli(["alpha", "--q", "0"], tmp_path) == 0
        assert "1/2" in capsys.readouterr().out

    def test_torsor_count_with_tuples(self, tmp_path):
        stream = tmp_path / "tuples.txt"
        assert run_cli(["torsor-count", "--bound", "3", "--tuples", str(stream)],
                       tmp_path) == 0
        lines = stream.read_text().strip().splitlines()
        assert lines and all(len(ln.split(",")) == 9 for ln in lines)

    def test_point_stream(self, tmp_path):
        stream = tmp_path / "points.txt"
        assert run_cli(["count", "--bound", "1", "--points", str(stream)],
                       tmp_path) == 0
        assert len(stream.read_text().strip().splitlines()) == 4

    def test_invalid_config_exit_code(self, tmp_path):
        assert run_cli(["count", "--bound", "-1"], tmp_path) == 2

    @pytest.mark.parametrize("args", [
        ["count", "--bound", "abc"],
        ["count", "--ring", "foo", "--bound", "10"],
        ["slices", "--a1", "x"],
        ["fit", "--bmin", "x"],
        ["constant", "--field-json", "missing.json"],
        ["count", "--bound", "0"],
        ["count", "--bound", "10", "--bound", "5"],
        ["--format", "csv,xml", "count", "--bound", "10"],
        ["fit", "--bmin", "1e5", "--bmax", "1e4"],
        ["fit", "--bmin", "0"],
        ["jigsaw", "--q", "1", "--allow-large"],
        ["count", "--bound", "1/0"],
        ["slices", "--a1", "1/0"],
        ["constant", "--prime-bound", "1/0"],
        ["fit", "--bmin", "1e4", "--bmax", "1e4"],
        ["fit", "--samples", "3"],
        ["fit", "--bmin", "1", "--bmax", "1e4", "--samples", "5"],
    ], ids=["bound", "ring", "a1", "bmin", "field-json", "zero", "descending", "format",
            "fit-descending", "fit-zero", "allow-large", "bound-over-0", "a1-over-0",
            "prime-bound-over-0", "fit-one-bound", "fit-three-samples", "fit-bound-one"])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, monkeypatch, args):
        def started(*args):
            raise AssertionError("work started on a rejected value")
        for module, name in ((surface, "direct_counts"), (torsor, "torsor_count"),
                             (torsor, "torsor_counts"), (jigsaw, "jigsaw_check")):
            monkeypatch.setattr(module, name, started)
        monkeypatch.chdir(tmp_path)
        assert run_cli(args, tmp_path / "out") == 2
        assert list(tmp_path.iterdir()) == []

    def test_unknown_ring_names_the_accepted_spellings(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["count", "--ring", "foo", "--bound", "10"], out) == 2
        err = capsys.readouterr().err
        assert "'foo'" in err and "Z," in err and "Zi," in err
        assert "parse_ring" not in err
        assert not out.exists()

    def test_torsor_count_timings_run_from_the_start_of_the_sweep(self, tmp_path):
        assert main(["--output", str(tmp_path), "--timings", "torsor-count",
                     "--bound", "100", "--bound", "1e5", "--bound", "1e6"]) == 0
        rows = parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert [r.count for r in rows] == [torsor.torsor_count(b)
                                           for b in (100, 10 ** 5, 10 ** 6)]
        elapsed = [r.elapsed for r in rows]
        assert 0 < elapsed[0] <= elapsed[1] <= elapsed[2]

    @pytest.mark.parametrize("args,methods", [
        (["count", "--bound", "1/2", "--bound", "7", "--bound", "60"], ["direct-divisor"]),
        (["count", "--ring", "Zi", "--bound", "3", "--bound", "20"], ["direct-divisor"]),
        (["torsor-count", "--bound", "100", "--bound", "1e5"], ["torsor-fast"]),
        (["fit", "--bmin", "1e3", "--bmax", "1e4", "--samples", "5"], ["torsor-fast"]),
        (["compare", "--bound", "30"], ["direct-divisor", "torsor-lifted"]),
    ], ids=["count", "count-zi", "torsor-count", "fit", "compare"])
    def test_every_row_carries_the_time_of_its_counting_call(self, tmp_path, args,
                                                               methods):
        for timings in (True, False):
            out = tmp_path / str(timings)
            assert main(["--output", str(out)] + ["--timings"] * timings + args) == 0
            rows = parse_counts_csv((out / "counts.csv").read_text())
            assert sorted({r.method for r in rows}) == methods
            for method in methods:
                elapsed = {r.elapsed for r in rows if r.method == method}
                assert len(elapsed) == 1
                assert (elapsed.pop() > 0) if timings else elapsed == {0.0}

    def test_count_builds_one_histogram_for_every_bound(self, tmp_path, monkeypatch):
        calls = []
        histogram = surface.direct_height_counts

        def counted(bound, ring=surface.INTEGERS):
            calls.append(bound)
            return histogram(bound, ring=ring)
        monkeypatch.setattr(surface, "direct_height_counts", counted)
        assert main(["--output", str(tmp_path), "--timings", "count", "--bound", "1/2",
                     "--bound", "7", "--bound", "60", "--bound", "60"]) == 0
        assert calls == [60]
        rows = parse_counts_csv((tmp_path / "counts.csv").read_text())
        expected = [int(histogram(60)[b]) for b in (0, 7, 60, 60)]
        assert [r.count for r in rows] == expected and expected[1] > 0
        elapsed = {r.elapsed for r in rows}
        assert len(elapsed) == 1 and elapsed.pop() > 0

    @pytest.mark.parametrize("ring", ["Z", "Zi"])
    def test_count_points_builds_one_sieve(self, tmp_path, monkeypatch, ring):
        calls = []
        sieve = surface._divisor_sieve

        def counted(n):
            calls.append(n)
            return sieve(n)
        monkeypatch.setattr(surface, "_divisor_sieve", counted)
        bound = "2000" if ring == "Z" else "200"
        plain, listed = tmp_path / "plain", tmp_path / "listed"
        for out in (plain, listed):
            out.mkdir()
        argv = ["count", "--ring", ring, "--bound", "3", "--bound", bound]
        assert main(["--output", str(plain), *argv]) == 0
        calls.clear()
        assert main(["--output", str(listed), *argv, "--points",
                     str(tmp_path / "points.txt")]) == 0
        assert calls == ([2000] if ring == "Z" else [])
        # the counts read off the listed heights are the histogram's
        assert (listed / "counts.csv").read_bytes() == (plain / "counts.csv").read_bytes()
        lines = (tmp_path / "points.txt").read_text().splitlines()
        assert len(lines) == parse_counts_csv(
            (plain / "counts.csv").read_text())[-1].count

    @pytest.mark.parametrize("args", [["jigsaw", "--q", str(q)] for q in range(4)]
                             + [["slices"]], ids=["q0", "q1", "q2", "q3", "slices"])
    def test_geometry_commands_run_no_linear_program(self, tmp_path, monkeypatch, args):
        def solved(*args):
            raise AssertionError("a production route ran the simplex")
        monkeypatch.setattr(_simplex, "solve_lp", solved)
        assert run_cli(args, tmp_path) == 0

    def test_jigsaw_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch):
        def built(*args):
            raise AssertionError("a polytope was built above MAX_JIGSAW_RANK")
        monkeypatch.setattr(jigsaw, "union_polytope", built)
        monkeypatch.setattr(jigsaw, "face_polytope", built)
        assert run_cli(["jigsaw", "--q", str(jigsaw.MAX_JIGSAW_RANK + 1)], tmp_path) == 2
        assert not (tmp_path / "jigsaw.json").exists()

    @pytest.mark.parametrize("q", [jigsaw.MAX_ALPHA_RANK + 1, 10 ** 8])
    def test_alpha_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys, q):
        def listed(*args, **kwargs):
            raise AssertionError("a multiset was listed above MAX_ALPHA_RANK")
        monkeypatch.setattr(jigsaw, "face_volume", listed)
        assert run_cli(["alpha", "--q", str(q)], tmp_path) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(jigsaw.MAX_ALPHA_RANK) in captured.err

    def test_count_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch):
        def started(*args):
            raise AssertionError("counting started above MAX_DIRECT_BOUND")
        monkeypatch.setattr(surface, "_divisor_sieve", started)
        assert run_cli(["count", "--bound", "1e9"], tmp_path) == 2
        assert not (tmp_path / "counts.csv").exists()

    def test_tuples_above_limit_exit_2_before_any_count(self, tmp_path, monkeypatch):
        def started(*args):
            raise AssertionError("counting started for tuples above MAX_DIRECT_BOUND")
        monkeypatch.setattr(torsor, "torsor_counts", started)
        monkeypatch.setattr(torsor, "_flat_blocks", started)
        bound = str(surface.MAX_DIRECT_BOUND[surface.INTEGERS] + 1)
        stream = tmp_path / "tuples.txt"
        assert run_cli(["torsor-count", "--bound", bound, "--tuples", str(stream)],
                       tmp_path / "out") == 2
        assert list(tmp_path.iterdir()) == []

    def test_tuple_stream_in_tiny_blocks_is_the_pinned_stream(self, tmp_path, monkeypatch):
        # blocks of 3 candidate pairs split the pairs of one a1 across blocks
        monkeypatch.setattr(torsor, "HEIGHT_BLOCK", 3)
        stream = tmp_path / "tuples.txt"
        assert run_cli(["torsor-count", "--bound", "200", "--tuples", str(stream)],
                       tmp_path / "out") == 0
        assert hashlib.sha256(stream.read_bytes()).hexdigest() == TUPLES_200

    @pytest.mark.parametrize("ring", ["Z", "Zi"])
    def test_points_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch, ring):
        def started(*args):
            raise AssertionError("counting started above MAX_POINTS_BOUND")
        monkeypatch.setattr(surface, "_divisor_sieve", started)
        monkeypatch.setattr(surface, "_normal_form_zi", started)
        limit = surface.MAX_POINTS_BOUND[surface.parse_ring(ring)]
        points = tmp_path / "points.txt"
        assert run_cli(["count", "--ring", ring, "--bound", str(limit + 1),
                        "--points", str(points)], tmp_path) == 2
        assert list(tmp_path.iterdir()) == []

    def test_fit_above_sweep_limit_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                            capsys):
        def started(*args, **kwargs):
            raise AssertionError("the fit grid was built above MAX_SWEEP_BOUNDS")
        monkeypatch.setattr(np, "logspace", started)
        monkeypatch.setattr(torsor, "_Bound", started)
        assert run_cli(["fit", "--samples", str(torsor.MAX_SWEEP_BOUNDS + 1)],
                       tmp_path / "out") == 2
        assert str(torsor.MAX_SWEEP_BOUNDS) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fit_above_bound_limit_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                            capsys):
        def started(*args, **kwargs):
            raise AssertionError("the fit grid was built above MAX_TORSOR_BOUND")
        monkeypatch.setattr(np, "logspace", started)
        monkeypatch.setattr(torsor, "_Bound", started)
        assert run_cli(["fit", "--bmax", "1e19"], tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "--bmax" in err and str(torsor.MAX_TORSOR_BOUND) in err
        assert list(tmp_path.iterdir()) == []

    def test_constant_above_prime_limit_exits_2_before_any_work(self, tmp_path, monkeypatch):
        def started(*args):
            raise AssertionError("the sieve started above MAX_PRIME_BOUND")
        monkeypatch.setattr(constants, "primes_up_to", started)
        assert run_cli(["constant", "--field", "Q", "--prime-bound",
                        str(constants.MAX_PRIME_BOUND + 1)], tmp_path) == 2
        assert not (tmp_path / "constants.json").exists()

    def test_constant_prime_bound_2e7_writes_the_bytes_of_20000000(self, tmp_path):
        written = []
        for text in ("2e7", "20000000"):
            out = tmp_path / text
            assert run_cli(["constant", "--field", "Q", "--prime-bound", text], out) == 0
            written.append((out / "constants.json").read_bytes())
        assert written[0] == written[1]
        assert json.loads(written[0])["euler_product"]["prime_bound"] == 20000000

    @pytest.mark.parametrize("text", ["2.5", "1e-3", "0", "-7", "inf", "x"])
    def test_constant_prime_bound_not_whole_exits_2_before_any_work(self, tmp_path,
                                                                    monkeypatch, text):
        def started(*args):
            raise AssertionError("the sieve started on a prime bound that is not whole")
        monkeypatch.setattr(constants, "primes_up_to", started)
        monkeypatch.setattr(constants, "_norm_segments", started)
        assert run_cli(["constant", "--field", "Q", "--prime-bound", text], tmp_path) == 2
        assert not (tmp_path / "constants.json").exists()

    def test_constant_prime_bound_one_keeps_its_message(self, tmp_path, capsys):
        assert run_cli(["constant", "--field", "Q", "--prime-bound", "1"], tmp_path) == 2
        assert "prime_bound must be >= 2" in capsys.readouterr().err

    def test_constant_prime_bound_two_is_one_factor(self, tmp_path):
        # the least prime bound: the Euler factor of p = 2 alone
        assert run_cli(["constant", "--field", "Q", "--prime-bound", "2"], tmp_path) == 0
        euler = json.loads((tmp_path / "constants.json").read_text())["euler_product"]
        assert (euler["prime_bound"], euler["factor_count"], euler["value"]) == (2, 1, 0.75)

    @pytest.mark.parametrize("field, label", [("Q", "6/pi^2"), ("Q(i)", "1/zeta_K(2)")])
    def test_constant_names_the_finite_product(self, tmp_path, field, label):
        assert run_cli(["constant", "--field", field, "--prime-bound", "100"], tmp_path) == 0
        payload = json.loads((tmp_path / "constants.json").read_text())
        assert payload["symbolic"]["finite_product"] == label

    def test_constant_above_period_limit_exits_2_before_any_work(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the chi table of d = -(1e9 + 7) would take about 40 min; no symbol may be evaluated
        monkeypatch.setattr(constants, "kronecker_symbol", None)
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"label": "Q(sqrt-p)", "r1": 0, "r2": 1, "mu": 2,
                                     "abs_disc": 10 ** 9 + 7, "quad_disc": -(10 ** 9 + 7),
                                     "regulator": 1.0, "class_number": 1}))
        assert run_cli(["constant", "--field-json", str(field)], tmp_path) == 2
        assert "supply zeta2" in capsys.readouterr().err
        assert not (tmp_path / "constants.json").exists()

    @pytest.mark.parametrize("entry", [
        {"regulator": "nan"}, {"regulator": "inf"}, {"regulator": 1e400}, {"zeta2": 0},
        {"zeta2": -1, "quad_disc": -4}, {"zeta2": "nan", "quad_disc": -4}, {"zeta2": 1}],
        ids=["regulator-nan", "regulator-inf", "regulator-1e400", "zeta2-0", "zeta2-neg",
             "zeta2-nan", "zeta2-1"])
    def test_constant_field_json_out_of_range_exits_2(self, tmp_path, capsys, entry):
        # a regulator must be finite and > 0, and zeta_K(2) > 1 for every number field;
        # NaN or Infinity would also make constants.json invalid JSON
        field = tmp_path / "field.json"
        invariants = {"label": "K", "r1": 0, "r2": 1, "mu": 4, "abs_disc": 4,
                      "regulator": 1.0, "class_number": 1, **entry}
        # json.dumps spells the float 1e400 as Infinity; write the number instead
        field.write_text(json.dumps(invariants).replace("Infinity", "1e400"))
        assert run_cli(["constant", "--field-json", str(field)], tmp_path / "out") == 2
        assert next(iter(entry)) in capsys.readouterr().err    # the message names it
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args,name,digest", [
        (["jigsaw", "--q", "0"], "jigsaw.json",
         "4147b94e2fb7d42ba3d5085a3720f83c9804c73f9019c81a37b80eee754c1238"),
        (["jigsaw", "--q", "1"], "jigsaw.json",
         "5037479c2fafc98b5e3d18b1b8e959ab24429c634c347e67b54854ae8737c763"),
        (["jigsaw", "--q", "2"], "jigsaw.json",
         "11fd8dcb2c5444f864d00c9182332a5816884206ee67214d0eb13d8f94364316"),
        (["jigsaw", "--q", "3"], "jigsaw.json",
         "d93950ce2228170cd0dfa30d565508ce93de2878309f7c24a88656da54491663"),
        (["jigsaw", "--q", "4"], "jigsaw.json",
         "23cea0d719c7589f7242adc8943cd51d4b24e8ef4a1a7758279284be6362b865"),
        (["jigsaw", "--q", "5"], "jigsaw.json",
         "b59723c030bc6bce8ee00eff5ffd92d7de80258219b86756990ed9b07e43178f"),
        (["jigsaw", "--q", "6"], "jigsaw.json",
         "b9faa8758a182cf9b9d65b00914b4ec107fd7b1398cc68d50a2f790294e812ca"),
        (["slices"], "slices.json",
         "c2ae189ee9d31b2f173aeeafc66fae153b4669d12dd5c2ca1f0a832dd9c79406"),
    ], ids=["q0", "q1", "q2", "q3", "q4", "q5", "q6", "slices"])
    def test_geometry_artifacts_are_pinned(self, tmp_path, args, name, digest):
        assert run_cli(["--format", "json"] + args, tmp_path) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("args,stream,digests", [
        (["count", "--bound", "7", "--bound", "2000"], None, {
            "counts.csv": "e1636a9851bbe8c1b953bb7e292789257026d182f342fed46e7cae5becbf8a94",
            "counts.json": "ed88d5efd71bb962ccd038851995a9578ba550b9560797840754e441df69192e"}),
        (["count", "--bound", "200"], "--points", {
            "counts.csv": "a072de26040e3ebac83f0261b33738691f879b9ba8cba68f8e87bc35de6c2fc3",
            "counts.json": "97149c54ea9f30aa39939c3514152aa2bf0b7c156693e2922e7d6b87a3a42eff",
            "stream": "b5e3a394c9d07a830dfa00bc78fb4d4cff518d69d049b7585a30cf1df8595dc0"}),
        (["count", "--ring", "Zi", "--bound", "30"], "--points", {
            "counts.csv": "05b8f5080de30d62d5ab260b1f0226b0ff43dc1ac8df44f1ef8cc3e329fbbc37",
            "counts.json": "7a240b34fd09d3aa5faad459a706e8f384165fee2f10d289966ece52ccbe9c4b",
            "stream": "6416dbed5ed44a015586b1d928107c7383b8e56befa84b5e3298363cd329733d"}),
        (["torsor-count", "--bound", "100", "--bound", "1e6"], None, {
            "counts.csv": "319ef1514e7a5427cb2bd775f3a76f4f096e4f5a919f527814451fc489a38d8a",
            "counts.json": "073d79e48772456c54e0ef3a54eb46ee2e36a13adcf36b0f8acce44aad916b32"}),
        (["torsor-count", "--bound", "200"], "--tuples", {
            "counts.csv": "084a0ae5ad3a09017ff9eab9f73a5398b6934d3420f615453479bb0b3e69cf03",
            "counts.json": "cb30cc8559976bb6a06da6fcc6219e825f51fe9c2e3efd9e68226ca7ad6c1f54",
            "stream": TUPLES_200}),
        (["compare", "--bound", "200"], None, {
            "counts.csv": "1ec0a7f93e4e9fedf8e9f2abb457078bcdd60eb03d086fea78adf877d143f884",
            "counts.json": "41086e05db338921a4d15d82fbaa14d440dae6028aeabd7bc513b9b058b930c2"}),
        # fit.json is left out: its floats come from numpy.linalg.lstsq
        (["fit", "--bmin", "1e4", "--bmax", "1e6", "--samples", "8"], None, {
            "counts.csv": "5b3e5985edbc3550ad27c9c4cf276c28d1dfd30ed30dd28afb7a184f2302b1a4",
            "counts.json": "906f4d511c6b84a37091ba30627a596f847e90c6b8b6b0457061b9bde9cff84e"}),
        *[(["constant", "--field", label], None, {"constants.json": digest})
          for label, digest in CONSTANTS_DIGESTS.items()],
    ], ids=["count", "count-points", "count-zi-points", "torsor", "torsor-tuples",
            "compare", "fit", *(f"constant-{label}" for label in CONSTANTS_DIGESTS)])
    def test_counting_artifacts_are_pinned(self, tmp_path, args, stream, digests):
        out = tmp_path / "out"
        extra = [stream, str(tmp_path / "stream")] if stream else []
        assert run_cli(args + extra, out) == 0
        for name, digest in digests.items():
            path = (tmp_path if name == "stream" else out) / name
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name

    def test_deterministic_outputs(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert main(["--output", str(out), "--format", "csv,json,svg",
                         "count", "--bound", "30"]) == 0
        for name in ("counts.csv", "counts.json", "counts.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_compare_labels_its_two_counters(self, tmp_path):
        assert run_cli(["compare", "--bound", "20"], tmp_path) == 0
        rows = parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert [r.method for r in rows] == ["direct-divisor", "torsor-lifted"] * 5
        assert [r.bound for r in rows[::2]] == [1, 2, 5, 10, 20]
        assert [r.bound for r in rows[1::2]] == [1, 2, 5, 10, 20]
        assert all(a.count == b.count for a, b in zip(rows[::2], rows[1::2]))

    @pytest.mark.parametrize("command", ["alpha", "jigsaw"])
    def test_failed_identity_exits_1(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(jigsaw, "alpha_closed_form", lambda q: F(1, 3))
        assert run_cli([command, "--q", "0"], tmp_path) == 1

    @pytest.mark.parametrize("case", ["output-is-a-file", "points-dir-missing"])
    def test_unwritable_artifact_exits_2_without_a_traceback(self, tmp_path, case):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = (["--output", str(taken), "jigsaw", "--q", "0"] if case == "output-is-a-file"
                else ["--output", str(tmp_path / "out"), "count", "--bound", "10",
                      "--points", str(tmp_path / "missing" / "p.txt")])
        proc = subprocess.run([sys.executable, "-m", "dp4jigsaw.cli", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=300)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write ")
        assert "Traceback" not in proc.stderr

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dp4jigsaw.cli", "--output", str(tmp_path),
             "modp", "--p", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "3,12,12,ok" in proc.stdout


STARTUP_CHILD = """
import json
import sys
from dp4jigsaw.cli import main
seen = []
for argv in (["jigsaw", "--q", "1"], ["alpha", "--q", "2"], ["slices"], ["--help"],
             ["count", "--bound", "10"]):
    status = main(["--output", sys.argv[1], *argv])
    seen.append([argv[0], status, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_geometry_commands_start_without_numpy(tmp_path):
    """jigsaw, alpha, slices and --help never load numpy; count does."""
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["jigsaw", 0, False], ["alpha", 0, False], ["slices", 0, False],
        ["--help", 0, False], ["count", 0, True]]


COMPARE_CHILD = """
import json
import sys

import numpy
from dp4jigsaw import cli, reporting, surface, torsor


def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024


base = peak_mb()
status = cli.main(["--output", sys.argv[1], "compare", "--bound", "20000"])
print(json.dumps([status, base, peak_mb()]))
"""

#: Most the peak RSS of compare --bound 20000 may grow over its post-import
#: baseline.  It grew by 5.4 MB, most of it the divisor sieve; a report of
#: every B built whole (4e4 rows, a CSV and an indented JSON text) grew it
#: by 74 MB.
COMPARE_GROWTH_MB = 20


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_compare_runs_in_bounded_memory(tmp_path):
    """A fresh process: VmHWM, unlike ru_maxrss, starts again at exec."""
    proc = subprocess.run([sys.executable, "-c", COMPARE_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, base, peak = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert peak - base < COMPARE_GROWTH_MB, (base, peak)
