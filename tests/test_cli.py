"""Reporting artifacts and the dp4 command-line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from dp4jigsaw import constants, jigsaw, reporting, surface, torsor
from dp4jigsaw.cli import main
from dp4jigsaw.errors import DegenerateDesignMatrix, IoFailure
from dp4jigsaw.geometry import _simplex

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


class TestCsv:
    def test_round_trip(self):
        rows = [
            reporting.CountRow(F(1), 4, None, None, "direct-divisor", 0.0),
            reporting.CountRow(F(100), 5412, 2578.5340421027786,
                               2.0988669963754085, "torsor-fast", 0.125),
        ]
        text = reporting.emit_counts_csv(rows)
        assert text.splitlines()[0] == "B,count,predicted,ratio,method,elapsed_s"
        assert text.splitlines()[1].startswith("1,4,,,direct-divisor")
        assert reporting.parse_counts_csv(text) == rows

    def test_empty_report_refused(self):
        with pytest.raises(IoFailure):
            reporting.emit_report([], ("csv",), ".")

    def test_svg_chart(self):
        svg = reporting.svg_line_chart(
            [("r", [(1.0, 1.0), (2.0, 1.5), (3.0, 1.2)])], "t", "x", "y")
        assert svg.startswith("<svg") and "polyline" in svg


def run_cli(args, outdir):
    return main(["--output", str(outdir)] + args)


class TestCli:
    def test_jigsaw_command(self, tmp_path, capsys):
        assert run_cli(["jigsaw", "--q", "1"], tmp_path) == 0
        payload = json.loads((tmp_path / "jigsaw.json").read_text())
        assert payload["alpha_sum"] == "1/6"
        assert payload["degenerate_faces"] == ["36,36"]
        assert payload["degenerate_report"]["reference_empty_interior_face"] == "57,57"

    def test_modp_command(self, tmp_path, capsys):
        assert run_cli(["modp", "--p", "5"], tmp_path) == 0
        assert "5,30,30,ok" in capsys.readouterr().out

    def test_count_command_and_csv(self, tmp_path):
        assert run_cli(["count", "--bound", "1", "--bound", "50"], tmp_path) == 0
        rows = reporting.parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert rows[0].bound == 1 and rows[0].count == 4
        assert rows[1].bound == 50 and rows[1].count == 2128

    def test_compare_command(self, tmp_path, capsys):
        assert run_cli(["compare", "--bound", "150"], tmp_path) == 0
        assert "agree" in capsys.readouterr().out

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
    ], ids=["bound", "ring", "a1", "bmin", "field-json", "zero", "descending", "format",
            "fit-descending", "fit-zero", "allow-large"])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, monkeypatch, args):
        def started(*args):
            raise AssertionError("work started on a rejected value")
        for module, name in ((surface, "direct_count"), (surface, "direct_counts"),
                             (torsor, "torsor_count"),
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
        rows = reporting.parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert [r.count for r in rows] == [torsor.torsor_count(b).count
                                           for b in (100, 10 ** 5, 10 ** 6)]
        elapsed = [r.elapsed for r in rows]
        assert 0 < elapsed[0] <= elapsed[1] <= elapsed[2]

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
        rows = reporting.parse_counts_csv((tmp_path / "counts.csv").read_text())
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
        assert len(lines) == reporting.parse_counts_csv(
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

    def test_count_above_limit_exits_2_before_any_work(self, tmp_path, monkeypatch):
        def started(*args):
            raise AssertionError("counting started above MAX_DIRECT_BOUND")
        monkeypatch.setattr(surface, "_divisor_sieve", started)
        assert run_cli(["count", "--bound", "1e9"], tmp_path) == 2
        assert not (tmp_path / "counts.csv").exists()

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

    def test_constant_above_prime_limit_exits_2_before_any_work(self, tmp_path, monkeypatch):
        def started(*args):
            raise AssertionError("the sieve started above MAX_PRIME_BOUND")
        monkeypatch.setattr(constants, "primes_up_to", started)
        assert run_cli(["constant", "--field", "Q", "--prime-bound",
                        str(constants.MAX_PRIME_BOUND + 1)], tmp_path) == 2
        assert not (tmp_path / "constants.json").exists()

    @pytest.mark.parametrize("args,name,digest", [
        (["jigsaw", "--q", "0"], "jigsaw.json",
         "b6f4e10d77d50ef77dfb1db3ca38eb840cf07f5cdb64a21ff62bf0f1ec6f75a1"),
        (["jigsaw", "--q", "1"], "jigsaw.json",
         "6ddd81d997a5fd6ec9687b78021046831ca6f3db1ebfa615990b0a78d05915d7"),
        (["jigsaw", "--q", "2"], "jigsaw.json",
         "12b0d884c04143a71aac3cbc44c1740453a37ed9327027d388c82def057b0b36"),
        (["jigsaw", "--q", "3"], "jigsaw.json",
         "a9a7f983cf5b3219fd2f1cead51ab30dcfa6240bcbc971be31c07ea0a03a4aa2"),
        (["slices"], "slices.json",
         "7774d79ea54f59b61a561224481a931ccff302a32660dd5c89eddef1ccb73f24"),
    ], ids=["q0", "q1", "q2", "q3", "slices"])
    def test_geometry_artifacts_are_pinned(self, tmp_path, args, name, digest):
        assert run_cli(["--format", "json"] + args, tmp_path) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

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
        rows = reporting.parse_counts_csv((tmp_path / "counts.csv").read_text())
        assert [r.method for r in rows] == ["direct-divisor", "torsor-lifted"] * 20
        assert [r.bound for r in rows[::2]] == list(range(1, 21))
        assert all(a.count == b.count for a, b in zip(rows[::2], rows[1::2]))

    @pytest.mark.parametrize("command", ["alpha", "jigsaw"])
    def test_failed_identity_exits_1(self, tmp_path, monkeypatch, command):
        monkeypatch.setattr(jigsaw, "alpha_closed_form", lambda q: F(1, 3))
        assert run_cli([command, "--q", "0"], tmp_path) == 1

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", STARTUP_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [
        ["jigsaw", 0, False], ["alpha", 0, False], ["slices", 0, False],
        ["--help", 0, False], ["count", 0, True]]
