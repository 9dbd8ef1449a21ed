"""Negative controls: plant one defect, and the checker that should see it fails.

Each case first runs the checker unplanted (exit 0, or agreement with its
oracle), so a control that passes can only mean the checker caught the
defect.
"""

import copy
import inspect
import json
import os
import textwrap
from fractions import Fraction

import pytest

from dp4jigsaw import constants, jigsaw, surface, torsor
from dp4jigsaw.cli import main
from dp4jigsaw.geometry import HPolytope, _dd, polytope
from tests_support import (OBLIQUE_PYRAMID, check_dd_cone, fraction_volume,
                           full_range_count, homogenized, surface_x2_zero_is_lines)


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
    commands = [["jigsaw", "--q", "1"], ["alpha", "--q", "2"], ["slices"]]
    for args in commands:
        assert run_cli(args, tmp_path) == 0
    # Ray (-1, 4) for (-1, 3) derives the (57) row 4s + t >= 0 instead of
    # 3s + t >= 0: the (57) cone is still unimodular and inside the
    # quadrant, but the (45) cone from (-1, 4) to (-1, 2) has det 2.
    monkeypatch.setattr(jigsaw, "FAN_RAYS", ((0, 1), (-1, 4), (-1, 2), (-1, 1), (-1, 0)))
    for args in commands:
        assert run_cli(args, tmp_path) == 1


def test_edge_fan_ray_in_alpha(tmp_path, monkeypatch):
    args = ["alpha", "--q", "2"]
    assert run_cli(args, tmp_path) == 0
    # (-2, 5) in place of (-1, 3): the pole t/(s+t) of the second ray moves
    # from 3/2 to 5/3, so every face volume with a coordinate on it changes.
    monkeypatch.setattr(jigsaw, "edge_fan",
                        lambda: ((0, 1), (-2, 5), (-1, 2), (-1, 1), (-1, 0)))
    assert run_cli(args, tmp_path) == 1


def test_valid_but_different_fan_in_jigsaw_and_slices(tmp_path, monkeypatch):
    commands = [["jigsaw", "--q", "1"], ["jigsaw", "--q", "2"], ["slices"],
                ["alpha", "--q", "3"]]
    for args in commands:
        assert run_cli(args, tmp_path) == 0
    # A unimodular fan of the quadrant, so the certificate accepts it, with
    # other rays than the real one: face_volume refuses its ray (-2, 1),
    # where t > 0 > s + t, and the a1 = 2/5 census has 7 positive pieces,
    # not the published 11.
    rays = ((0, 1), (-1, 2), (-1, 1), (-2, 1), (-1, 0))
    monkeypatch.setattr(jigsaw, "FAN_RAYS", rays)
    assert jigsaw.edge_fan() == rays
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
    # The interior witness negated, so negative on every generator: no point
    # passes the face rows, and the strict-feasibility column lists all 16
    # faces against the one volume-zero face.
    monkeypatch.setattr(jigsaw, "interior_certificate", _recompiled(
        jigsaw.interior_certificate, "d = 1 + abs(",
        "witness = tuple(-x for x in witness); d = 1 + abs("))
    assert run_cli(args, tmp_path) == 1
    report = json.loads((tmp_path / "jigsaw.json").read_text())["degenerate_report"]
    assert len(report["strict_feasibility_zero_faces"]) == 16
    assert report["volume_zero_faces"] == ["36,36"]


def test_swapped_line_combination_in_jigsaw(tmp_path, monkeypatch, capsys):
    # mu = -sigma(v) and nu = -sigma(u) trade places: at the all-(36) face the
    # combination no longer sums the generators to 0, and no point exists.
    args = ["jigsaw", "--q", "1"]
    assert run_cli(args, tmp_path) == 0
    monkeypatch.setattr(jigsaw, "interior_certificate", _recompiled(
        jigsaw.interior_certificate, "(-sv, -su)", "(-su, -sv)"))
    assert run_cli(args, tmp_path) == 1
    assert "face 36,36: the line combination (1, 1, 0, 1, 0, 1)" in capsys.readouterr().err


def test_unscaled_constant_in_fix_coordinates(tmp_path, monkeypatch):
    # The substituted values enter scaled by D, the constant as it was.
    assert run_cli(["slices"], tmp_path) == 0
    planted = _recompiled(polytope.fix_coordinates, "f.const * scale +", "f.const +")
    monkeypatch.setattr(polytope, "fix_coordinates", planted)
    monkeypatch.setattr(jigsaw, "fix_coordinates", planted)
    assert run_cli(["slices"], tmp_path) == 1


def _negated_scale(vertices, _lattice=polytope._lattice):
    scale, points = _lattice(vertices)
    return -scale, [tuple(-x for x in v) for v in points]


def _scale_one_factor_short(vertices, _lattice=polytope._lattice):
    scale, points = _lattice(vertices)
    return scale, [tuple(2 * x for x in v) for v in points]


@pytest.mark.parametrize("lattice", [_negated_scale, _scale_one_factor_short],
                         ids=["negated-scale", "scale-one-factor-short"])
def test_wrong_lattice_scale_in_volume(tmp_path, monkeypatch, lattice):
    args = ["jigsaw", "--q", "1"]
    assert run_cli(args, tmp_path) == 0
    pyramid = jigsaw.pyramid_polytope(1)
    base = jigsaw.pyramid_base_polytope(1)
    assert pyramid.volume() == base.volume() / 5 == jigsaw.alpha_closed_form(1) / 5
    monkeypatch.setattr(polytope, "_lattice", lattice)
    assert run_cli(args, tmp_path) == 1
    if lattice is _negated_scale:
        # The tight sets and simplices stay right; the divisor D^dim turns
        # negative in the odd dimension of P and P' but not of P'_0.
        assert pyramid.volume() != base.volume() / 5
    else:
        # Points on the lattice 2D against a divisor D: the tight sets of
        # the rows with a constant go wrong and both triangulations come out
        # empty, so the pyramid identity reads 0 = 0 / 5 and only the
        # closed form for P'_0 sees the plant.
        assert pyramid.volume() == base.volume() == 0
        assert base.volume() != jigsaw.alpha_closed_form(1)


def _column_class_plus_one(ys, classes, weights, s, n, work, _columns=torsor._columns):
    a1, column_classes, column_weights = _columns(ys, classes, weights, s, n, work)
    return a1, column_classes + 1, column_weights


def _column_without_m_below_k(ys, a1, classes, weights, bound, work,
                              _column_pairs=torsor._column_pairs):
    full = copy.copy(bound)
    full.m = full.k          # x = K counted as if M = K
    return _column_pairs(ys, a1, classes, weights, full, work)


@pytest.mark.parametrize("name,planted", [
    ("_columns", _column_class_plus_one),
    ("_column_pairs", _column_without_m_below_k),
], ids=["class-plus-one", "no-m-below-k-correction"])
def test_wrong_torsor_column_against_the_oracle(monkeypatch, name, planted):
    # B = K^2 has M = K - 1 < K, and there f(K) - g(K) = -[c = y] at a1 = K - y:
    # the correction counts only where y^2 = -1 (mod a1) for some y <= S = K // 2,
    # as (y, a1) = (2, 5), (3, 5), (12, 29) and (6, 37) at these K
    bounds = [7 ** 2, 8 ** 2, 41 ** 2, 43 ** 2]
    oracle = [full_range_count(b) for b in bounds]
    assert [torsor.torsor_count(b) for b in bounds] == oracle
    monkeypatch.setattr(torsor, name, planted)
    counts = [torsor.torsor_count(b) for b in bounds]
    assert all(c != o for c, o in zip(counts, oracle)), counts


def _recompiled(function, old, new):
    """function compiled again from its source with old, found once, read as new."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    return namespace[function.__name__]


def test_class_mirror_off_by_one_against_the_oracle(monkeypatch):
    # inv[y - x] read one entry up, inv[y - x + 1], for the top half of every row
    bound = 41 ** 2
    assert torsor.torsor_count(bound) == full_range_count(bound)
    monkeypatch.setattr(torsor, "_class_rows", _recompiled(
        torsor._class_rows, "[last::-(top + 1)]", "[last - 1::-(top + 1)]"))
    assert torsor.torsor_count(bound) != full_range_count(bound)


def _kernel_without_f_k_correction(monkeypatch):
    # the rows' f(K) correction, which _Block.rests takes off where M = K - 1
    monkeypatch.setattr(torsor._Block, "rests", _recompiled(
        torsor._Block.rests, "if bound.m < k:", "if False:"))


def _a1_one_row_off_by_one(monkeypatch):
    class Planted(torsor._Bound):
        def __init__(self, b):
            super().__init__(b)
            self.pairs = 2 * torsor._divisor_sum(b)     # D(b) + D(b), not D(b - 1) + D(b)
    monkeypatch.setattr(torsor, "_Bound", Planted)


def _tail_q_for_q_minus_one(monkeypatch):
    monkeypatch.setattr(torsor, "_tail_pairs", _recompiled(
        torsor._tail_pairs, "np.dot(q - 1,", "np.dot(q,"))


def _deal_drops_a_block(monkeypatch, _forked=torsor._forked):
    monkeypatch.setattr(torsor, "_forked", lambda states, shares, local: _forked(
        states, [shares[0][:-1]] + shares[1:], local))


@pytest.mark.parametrize("plant", [
    _kernel_without_f_k_correction, _a1_one_row_off_by_one,
    _tail_q_for_q_minus_one, _deal_drops_a_block,
], ids=["kernel-no-f-k-correction", "a1-one-off-by-one", "tail-q-for-q-minus-one",
        "deal-drops-a-block"])
def test_wrong_torsor_sweep_part_against_the_oracle(monkeypatch, plant):
    # The sweep forked into blocks of 4 moduli (as TestForkedSweep does), so
    # that the deal of blocks runs; on one CPU the affinity is widened to two.
    monkeypatch.setattr(torsor, "FORK_MIN_MODULI", 2)
    monkeypatch.setattr(torsor, "SHARE_BLOCK", 4)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # B = K^2 has M = K - 1 for the kernel's f(K) correction; only 99999
    # (K = 316) reaches the moduli of the first worker's last block
    bounds = [7 ** 2, 8 ** 2, 41 ** 2, 43 ** 2, 10 ** 4, 12345, 99999]
    oracle = [full_range_count(b) for b in bounds]
    assert torsor.torsor_counts(bounds) == oracle
    plant(monkeypatch)
    counts = torsor.torsor_counts(bounds)
    assert counts != oracle, counts


def test_line_dropped_from_the_x2_zero_check(monkeypatch):
    primes = [2, 3, 5, 7, 11, 13]
    assert all(surface_x2_zero_is_lines(p) for p in primes)
    # (0:0:0:1:t) lies on L'' alone, so without L'' it is a surface point
    # with x2 = 0 on no line
    lines = surface._lines
    monkeypatch.setattr(surface, "_lines", lambda *x: lines(*x) - {surface.LINE_LPP})
    assert not any(surface_x2_zero_is_lines(p) for p in primes)


def test_non_maximal_subfaces_in_the_triangulation(monkeypatch):
    # The oblique pyramid's apex lies on four facets, so the facet through
    # the edge x = 2 meets the opposite facet at the apex alone: a vertex
    # that the planted rule keeps as a facet, adding a short "simplex".  The
    # jigsaw and pyramid volumes for q <= 3 do not change under this plant;
    # the pyramid is an example of test_clipped_rows, whose oracle takes
    # the facets by rank.
    pyramid = HPolytope(*OBLIQUE_PYRAMID)
    oracle = fraction_volume(3, pyramid.inequalities, pyramid.vertices)
    assert pyramid.volume() == oracle == Fraction(8, 3)
    monkeypatch.setattr(polytope, "_triangulate_face", _recompiled(
        polytope._triangulate_face, " and not any(sub < other for other in subs)", ""))
    assert pyramid.volume() != oracle


def test_double_description_skip_tightened_by_one(tmp_path, monkeypatch):
    args = ["jigsaw", "--q", "1"]
    cone = homogenized(jigsaw.face_rows(("57", "36")))
    assert run_cli(args, tmp_path) == 0
    check_dd_cone(*cone)
    # Adjacent rays may share exactly dim - 2 - len(lineality) tight rows;
    # skipping those pairs loses the rays they would make.
    planted = _recompiled(_dd.dd_cone, "dim - 2 - len(lineality)", "dim - 1 - len(lineality)")
    monkeypatch.setattr(_dd, "dd_cone", planted)
    monkeypatch.setattr(polytope, "dd_cone", planted)
    with pytest.raises(AssertionError):
        check_dd_cone(*cone)
    assert run_cli(args, tmp_path) == 1
