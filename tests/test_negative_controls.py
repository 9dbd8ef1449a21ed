"""Negative controls: plant one defect, and the checker that should see it exits 1.

Each case first runs the checker unplanted (exit 0), so a control that
passes can only mean the checker caught the defect.
"""

import json
from fractions import Fraction as F

import pytest

from dp4jigsaw import constants, jigsaw, surface
from dp4jigsaw.cli import main
from dp4jigsaw.geometry import ConeLineDiagnostic


def run_cli(args, outdir):
    return main(["--output", str(outdir)] + args)


def test_normal_form_divisor_bound_off_by_one(tmp_path, monkeypatch):
    args = ["compare", "--bound", "50"]
    assert run_cli(args, tmp_path) == 0
    normal_form = surface._normal_form_z

    def drops_d_equal_to_bound(bound):
        for m, d in normal_form(bound):
            yield m, d[d < bound]

    monkeypatch.setattr(surface, "_normal_form_z", drops_d_equal_to_bound)
    assert run_cli(args, tmp_path) == 1


def test_surface_equation_coefficient_in_modp(tmp_path, monkeypatch):
    assert run_cli(["modp"], tmp_path) == 0
    # A zero coefficient of x1*x3 changes the surface, and p^2 + p sees it.
    monkeypatch.setattr(surface, "_forms", lambda x0, x1, x2, x3, x4: (
        x0 * x3 - x2 * x4, x0 * x1 + 0 * x1 * x3 + x2 * x2))
    assert run_cli(["modp"], tmp_path) == 1


@pytest.mark.parametrize("forms", [
    lambda x0, x1, x2, x3, x4: (x0 * x3 + x2 * x4, x0 * x1 + x1 * x3 + x2 * x2),
    lambda x0, x1, x2, x3, x4: (x0 * x3 - x2 * x4, x0 * x1 - x1 * x3 + x2 * x2),
], ids=["plus-x2x4", "minus-x1x3"])
def test_surface_equation_sign_in_modp(tmp_path, monkeypatch, forms):
    # A sign flip is a rescaling of coordinates and keeps p^2 + p; only the
    # check on the points over Z sees it.
    assert run_cli(["modp"], tmp_path) == 0
    monkeypatch.setattr(surface, "_forms", forms)
    assert run_cli(["modp"], tmp_path) == 1


def test_wrong_zeta_k_2_in_constant(tmp_path, monkeypatch):
    args = ["constant", "--field", "Q", "--prime-bound", "1000"]
    assert run_cli(args, tmp_path) == 0
    zeta2 = constants.dedekind_zeta2

    def one_percent_high(inv):
        value, err = zeta2(inv)
        return 1.01 * value, err

    monkeypatch.setattr(constants, "dedekind_zeta2", one_percent_high)
    assert run_cli(args, tmp_path) == 1


def test_edge_inequality_row_in_jigsaw_and_alpha(tmp_path, monkeypatch):
    commands = [["jigsaw", "--q", "1"], ["alpha", "--q", "2"]]
    for args in commands:
        assert run_cli(args, tmp_path) == 0
    # 4s + t >= 0 instead of 3s + t >= 0: the (57) cone is still unimodular
    # and inside the quadrant, but ends at (-1, 4), not at the (45) cone's
    # first ray (-1, 3).
    monkeypatch.setitem(jigsaw.EDGE_INEQUALITIES, "57", ((-1, 0), (4, 1)))
    for args in commands:
        assert run_cli(args, tmp_path) == 1


def test_laplace_pole_in_alpha(tmp_path, monkeypatch):
    args = ["alpha", "--q", "2"]
    assert run_cli(args, tmp_path) == 0
    monkeypatch.setattr(jigsaw, "LAPLACE_POLES", (F(1), F(5, 3), F(2)))
    assert run_cli(args, tmp_path) == 1


def test_valid_but_different_fan_in_jigsaw_and_slices(tmp_path, monkeypatch):
    commands = [["jigsaw", "--q", "1"], ["jigsaw", "--q", "2"], ["slices"]]
    for args in commands:
        assert run_cli(args, tmp_path) == 0
    # A unimodular fan of the quadrant, so the certificate accepts it, with
    # other rays than the real one: the strict-feasibility oracle no longer
    # agrees with the closed-form volumes, and the a1 = 2/5 census has 7
    # positive pieces, not the published 11.
    monkeypatch.setattr(jigsaw, "EDGE_INEQUALITIES", {
        "57": ((-1, 0), (2, 1)), "45": ((-2, -1), (1, 1)),
        "34": ((-1, -1), (1, 2)), "36": ((-1, -2), (0, 1))})
    assert jigsaw.edge_fan() == ((0, 1), (-1, 2), (-1, 1), (-2, 1), (-1, 0))
    for args in commands:
        assert run_cli(args, tmp_path) == 1


@pytest.mark.parametrize("entry,value", [((1, 3), 0), ((2, 4), 0), ((3, 3), 1)],
                         ids=["m13", "m24", "m33"])
def test_census_change_of_variables_entry_in_slices(tmp_path, monkeypatch, entry, value):
    assert run_cli(["slices"], tmp_path) == 0
    # One wrong entry of M in x = M y: the pulled-back pieces no longer tile
    # the rectangle [0, a1] x [0, 1] (each plant fails the union check and
    # the published piece counts at all three a1).
    change = jigsaw.census_change_of_variables

    def planted(q):
        m = change(q)
        m[entry[0]][entry[1]] = value
        return m

    monkeypatch.setattr(jigsaw, "census_change_of_variables", planted)
    assert run_cli(["slices"], tmp_path) == 1


def test_negated_separating_functional_in_jigsaw(tmp_path, monkeypatch):
    args = ["--format", "json", "jigsaw", "--q", "1"]
    assert run_cli(args, tmp_path) == 0
    # A functional negative on every generator: no witness point passes the
    # face rows, so the strict-feasibility column lists all 16 faces against
    # the one volume-zero face.
    diagnose = jigsaw.cone_contains_line

    def negated(cone):
        diagnostic = diagnose(cone)
        u = diagnostic.separating_functional
        if u is None:
            return diagnostic
        return ConeLineDiagnostic(None, tuple(-x for x in u))

    monkeypatch.setattr(jigsaw, "cone_contains_line", negated)
    assert run_cli(args, tmp_path) == 1
    report = json.loads((tmp_path / "jigsaw.json").read_text())["degenerate_report"]
    assert len(report["strict_feasibility_zero_faces"]) == 16
    assert report["volume_zero_faces"] == ["36,36"]
