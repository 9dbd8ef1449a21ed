"""Face polytopes, the jigsaw partition, pyramids, and the slice census."""

import random
import re
from collections import Counter
from fractions import Fraction as F
from itertools import permutations
from math import comb

import pytest

from dp4jigsaw import jigsaw
from dp4jigsaw.cli import main
from dp4jigsaw.errors import (IndexOutOfRange, NegativeRank, OutOfRange,
                              PartitionFailure)
from dp4jigsaw.geometry import AffineForm, HPolytope, polytope, strictly_feasible
from tests_support import (dd_interior_certificate, edge_multisets, evaluate,
                           face_volume_fractions, hand_pyramid_base_polytope,
                           hand_pyramid_polytope, overlapping_faces,
                           slice_polytope, strictly_contains, transform_polytope)

Q0_EXPECTED = {("57",): F(5, 54), ("45",): F(7, 216),
               ("34",): F(1, 24), ("36",): F(0)}


def multiset_face(m):
    """The face with edge multiplicities m, its edges in path order."""
    return tuple(e for e, k in zip(jigsaw.EDGE_LABELS, m) for _ in range(k))


def stern_brocot_fans(insertions):
    """Every unimodular fan from (0, 1) to (-1, 0) with insertions + 1 cones.

    Each insertion puts the sum of two consecutive rays between them.
    """
    fans = {((0, 1), (-1, 0))}
    for _ in range(insertions):
        fans = {fan[:i] + (tuple(a + b for a, b in zip(fan[i - 1], fan[i])),) + fan[i:]
                for fan in fans for i in range(1, len(fan))}
    return sorted(fans)


#: Every unimodular fan of the quadrant with 1..6 cones: 1, 1, 2, 5, 14, 42.
ALL_FANS = [fan for cones in range(1, 7) for fan in stern_brocot_fans(cones - 1)]


def sigma_nonnegative(rays):
    """Whether face_volume reads the fan: s + t >= 0 on every ray with t > 0."""
    return all(s + t >= 0 for s, t in rays if t > 0)


def fan_id(rays):
    return "/".join(f"{s},{t}" for s, t in rays[1:-1]) or "one-cone"


def place_rows(face, n):
    """The two rows of the face's block at place n, as (coeffs, const) pairs."""
    return [(f.coeffs, f.const) for f in jigsaw.face_rows(face)[3 + 2 * n:5 + 2 * n]]


class TestFaceInequalities:
    def test_edge_57_place_0(self):
        assert place_rows(("57",), 0) == [((0, -1, 0), 0), ((0, 3, 1), 0)]

    def test_edge_36_place_1_q1(self):
        assert place_rows(("57", "36"), 1) == \
            [((0, 0, 0, -1, -1), 0), ((0, 0, 0, 0, 1), 0)]

    def test_edge_34_place_0_q2(self):
        assert place_rows(("34", "57", "57"), 0) == \
            [((0, -2, -1, 0, 0, 0, 0), 0), ((0, 1, 1, 0, 0, 0, 0), 0)]

    def test_unknown_edge_label(self):
        with pytest.raises(IndexOutOfRange):
            jigsaw.face_rows(("57", "99"))


class TestFacePolytopes:
    def test_q0_volumes(self):
        for face, expected in Q0_EXPECTED.items():
            assert jigsaw.face_polytope(face).volume() == expected

    def test_q0_face_57_has_five_rows(self):
        assert len(jigsaw.face_polytope(("57",)).inequalities) == 5

    def test_union_volumes(self):
        assert jigsaw.union_polytope(0).volume() == F(1, 6)
        assert jigsaw.union_polytope(1).volume() == F(1, 30)
        assert jigsaw.union_polytope(2).volume() == F(1, 336)

    def test_negative_rank(self):
        with pytest.raises(NegativeRank):
            jigsaw.union_polytope(-1)
        with pytest.raises(NegativeRank):
            jigsaw.alpha_closed_form(-2)


class TestAlpha:
    def test_closed_form(self):
        assert jigsaw.alpha_closed_form(0) == F(1, 2)
        assert jigsaw.alpha_closed_form(1) == F(1, 6)
        assert jigsaw.alpha_closed_form(2) == F(1, 48)


def degenerate(rows):
    return [edges for edges, _, volume in rows if volume == 0]


class TestJigsawCheck:
    def test_q0_report(self):
        report = jigsaw.jigsaw_check(0)
        assert {edges: volume for edges, _, volume in report.rows} == Q0_EXPECTED
        assert [n for _, n, _ in report.rows] == [1, 1, 1, 1]
        assert report.union_volume == F(1, 6)
        assert report.alpha_sum == F(1, 2)
        assert degenerate(report.rows) == [("36",)]
        assert report.disjointness_verified
        assert report.alpha_sum == 3 * report.union_volume

    def test_q1_report(self):
        report = jigsaw.jigsaw_check(1)
        assert len(report.rows) == 10
        assert sum(n for _, n, _ in report.rows) == 16
        assert report.alpha_sum == F(1, 6)
        assert report.union_volume == F(1, 30)
        assert degenerate(report.rows) == [("36", "36")]

    def test_json_payload_is_sorted_and_stringly(self):
        payload = jigsaw.jigsaw_check(1).to_json_dict()
        assert payload["multisets"]["57,45"] == {"faces": 2, "volume": "17/12960"}
        assert payload["alpha_sum"] == "1/6"
        assert payload["degenerate_multisets"] == ["36,36"]
        # each key lists its edges in path order, so a face has one key
        order = jigsaw.EDGE_LABELS.index
        assert all(key.split(",") == sorted(key.split(","), key=order)
                   for key in payload["multisets"])

    @pytest.mark.parametrize("q", range(7))
    def test_rows_are_the_edge_multisets_in_path_order(self, q):
        rows = list(jigsaw.multiset_rows(q))
        keys = [edges for edges, _, _ in rows]
        assert len(keys) == len(set(keys)) == comb(q + 4, 3)
        order = jigsaw.EDGE_LABELS.index
        assert all(list(edges) == sorted(edges, key=order) and len(edges) == q + 1
                   for edges in keys)
        assert sum(n for _, n, _ in rows) == 4 ** (q + 1)
        if q <= 4:  # every face, sorted into path order, is counted by its row
            faces = Counter(tuple(sorted(f, key=order)) for f in jigsaw.all_faces(q))
            assert faces == {edges: n for edges, n, _ in rows}

    def test_rank_cap(self, monkeypatch):
        def built(*args):
            raise AssertionError("a polytope was built above MAX_JIGSAW_RANK")
        monkeypatch.setattr(jigsaw, "union_polytope", built)
        monkeypatch.setattr(jigsaw, "face_polytope", built)
        q = jigsaw.MAX_JIGSAW_RANK + 1
        with pytest.raises(OutOfRange):
            jigsaw.jigsaw_check(q)
        assert jigsaw.alpha_sum(q) == jigsaw.alpha_closed_form(q)
        report = jigsaw.degenerate_face_report(q, jigsaw.multiset_rows(q))
        assert report["oracles_agree"] and report["cone_line_multisets"] == [
            jigsaw.face_key(("36",) * (q + 1))]


class TestClosedForm:
    """The closed form and the fan certificate against the brute-force oracles."""

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_face_volume_equals_triangulation(self, q):
        cache = jigsaw._FaceCache()
        for m in edge_multisets(q):
            face = multiset_face(m)
            assert jigsaw.multiplicities(face) == m
            assert jigsaw.face_volume(m) == cache.volume(face)

    def test_face_volume_needs_one_multiplicity_per_cone(self):
        with pytest.raises(ValueError):
            jigsaw.face_volume((1, 0, 0))

    def test_integer_sum_equals_the_fraction_sum_to_8(self):
        for q in range(9):
            for m in edge_multisets(q):
                assert jigsaw.face_volume(m) == face_volume_fractions(*m)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_pairwise_loop_confirms_disjointness(self, q):
        assert overlapping_faces(q) == []

    def test_alpha_sum_to_20(self):
        for q in range(21):
            assert jigsaw.alpha_sum(q) == jigsaw.alpha_closed_form(q)

    def test_only_the_all_36_multiset_is_degenerate_to_8(self):
        for q in range(9):
            multisets = edge_multisets(q)
            assert len(multisets) == (q + 4) * (q + 3) * (q + 2) // 6
            assert [m for m in multisets if jigsaw.face_volume(m) == 0] == [(0, 0, 0, q + 1)]

    def test_fan_certificate_on_the_table(self):
        rays = jigsaw.edge_fan()
        assert rays == ((0, 1), (-1, 3), (-1, 2), (-1, 1), (-1, 0))

    def test_fan_certificate_rejects_two_swapped_rays(self, tmp_path, monkeypatch):
        # rho1 and rho2 swapped: the (45) cone turns clockwise, det -1, and
        # its derived rows would cut out nothing.
        monkeypatch.setattr(jigsaw, "FAN_RAYS",
                            ((0, 1), (-1, 2), (-1, 3), (-1, 1), (-1, 0)))
        with pytest.raises(PartitionFailure, match=re.escape("(45) has det = -1")):
            jigsaw.edge_fan()
        with pytest.raises(PartitionFailure):
            jigsaw.jigsaw_check(0)
        with pytest.raises(PartitionFailure):
            jigsaw.alpha_sum(0)
        assert main(["--output", str(tmp_path), "slices"]) == 1

    # Each fan below keeps every cone unimodular and in the quadrant but
    # breaks the last condition, or has one ray too few.
    @pytest.mark.parametrize("rays,reason", [
        (((-1, 4), (-1, 3), (-1, 2), (-1, 1), (-1, 0)), "runs from"),
        (((0, 1), (-1, 3), (-1, 2), (-1, 1), (-2, 1)), "runs from"),
        (((0, 1), (-1, 2), (-1, 1), (-1, 0)), "4 fan rays for 4 edge cones"),
    ], ids=["first-ray", "last-ray", "ray-count"])
    def test_fan_certificate_rejects_wrong_end_rays(self, monkeypatch, rays, reason):
        monkeypatch.setattr(jigsaw, "FAN_RAYS", rays)
        with pytest.raises(PartitionFailure, match=reason):
            jigsaw.edge_fan()

    def test_fan_certificate_rejects_a_cone_of_det_2(self, monkeypatch):
        # Rays (0,1), (-1,3), (-1,1), (-2,1), (-1,0) tile the quadrant, but
        # the (45) cone has det 2, which the volume formula does not allow.
        monkeypatch.setattr(jigsaw, "FAN_RAYS",
                            ((0, 1), (-1, 3), (-1, 1), (-2, 1), (-1, 0)))
        with pytest.raises(PartitionFailure, match=re.escape("(45) has det = 2")):
            jigsaw.edge_fan()

    def test_fan_certificate_rejects_a_fan_winding_past_the_quadrant(self, monkeypatch):
        # Rays (0,1), (-1,-1), (0,-1), (1,1), (-1,0): each cone unimodular
        # counterclockwise, first and last rays right, but the fan turns
        # through 5 pi / 2, so its cones overlap.  Only the quadrant
        # condition rejects it.
        monkeypatch.setattr(jigsaw, "FAN_RAYS",
                            ((0, 1), (-1, -1), (0, -1), (1, 1), (-1, 0)))
        with pytest.raises(PartitionFailure, match="quadrant"):
            jigsaw.edge_fan()


class TestEveryFan:
    """face_volume on each unimodular fan of the quadrant with 1..6 cones."""

    def test_fan_counts(self):
        by_cones = [[f for f in ALL_FANS if len(f) == cones + 1] for cones in range(1, 7)]
        assert [len(fans) for fans in by_cones] == [1, 1, 2, 5, 14, 42]
        accepted = [sum(map(sigma_nonnegative, fans)) for fans in by_cones]
        assert accepted == [1, 1, 1, 2, 5, 14]
        assert [len(fans) - n for fans, n in zip(by_cones, accepted)] == [0, 0, 1, 3, 9, 28]
        assert jigsaw.FAN_RAYS in ALL_FANS and sigma_nonnegative(jigsaw.FAN_RAYS)
        for rays in ALL_FANS:
            assert all(u[0] * v[1] - u[1] * v[0] == 1 for u, v in zip(rays, rays[1:]))

    @pytest.mark.parametrize("rays", ALL_FANS, ids=fan_id)
    def test_face_volume_on_the_fan(self, monkeypatch, rays):
        monkeypatch.setattr(jigsaw, "FAN_RAYS", rays)
        labels = tuple(f"e{j}" for j in range(len(rays) - 1))
        monkeypatch.setattr(jigsaw, "EDGE_LABELS", labels)
        assert jigsaw.edge_fan() == rays
        if not sigma_nonnegative(rays):
            ray = next((s, t) for s, t in rays if t > 0 > s + t)
            for m in edge_multisets(1):
                with pytest.raises(PartitionFailure, match=re.escape(str(ray))):
                    jigsaw.face_volume(m)
            return
        for q in range(4):
            assert jigsaw.alpha_sum(q) == jigsaw.alpha_closed_form(q)
        cache = jigsaw._FaceCache()
        for q in range(2):
            for m in edge_multisets(q):
                face = multiset_face(m)
                volume = jigsaw.face_volume(m)
                assert volume == cache.volume(face)
                # Zero exactly when every ray the face uses has s + t <= 0.
                used = {ray for edge in face
                        for ray in rays[jigsaw.EDGE_LABELS.index(edge):][:2]}
                flat = all(s + t <= 0 for s, t in used)
                assert (volume == 0) == flat
                diagnostic, point = jigsaw.interior_certificate(face)
                assert (point is None) == diagnostic.contains_line == flat
                oracle, oracle_point = dd_interior_certificate(face)
                assert oracle.contains_line == flat and (oracle_point is None) == flat


class TestEffectiveGenerators:
    def test_q0_57(self):
        gens = jigsaw.effective_generators(jigsaw.face_rows(("57",))).generators
        assert gens == ((1, 1, 0), (-1, 0, 1), (0, -1, 0), (0, 3, 1))

    def test_q0_36(self):
        gens = jigsaw.effective_generators(jigsaw.face_rows(("36",))).generators
        assert gens == ((1, 1, 0), (-1, 0, 1), (0, -1, -1), (0, 0, 1))

    def test_homogeneous_face_rows(self):
        # (57) is pinned by test_q0_57.
        assert jigsaw.effective_generators(jigsaw.face_rows(("36", "45"))).generators == (
            (1, 1, 0, 1, 0), (-1, 0, 1, 0, 1), (0, -1, -1, 0, 0), (0, 0, 1, 0, 0),
            (0, 0, 0, -3, -1), (0, 0, 0, 2, 1))
        assert jigsaw.effective_generators(jigsaw.face_rows(("34", "57", "36"))).generators == (
            (1, 1, 0, 1, 0, 1, 0), (-1, 0, 1, 0, 1, 0, 1), (0, -2, -1, 0, 0, 0, 0),
            (0, 1, 1, 0, 0, 0, 0), (0, 0, 0, -1, 0, 0, 0), (0, 0, 0, 3, 1, 0, 0),
            (0, 0, 0, 0, 0, -1, -1), (0, 0, 0, 0, 0, 0, 1))

    def test_q1_45_34(self):
        gens = jigsaw.effective_generators(jigsaw.face_rows(("45", "34"))).generators
        assert len(gens) == 6
        assert (0, -3, -1, 0, 0) in gens
        assert (0, 0, 0, 1, 1) in gens


class TestDegenerateFaces:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_certificates_match_the_vertex_oracle(self, q):
        strict = {}
        for m in edge_multisets(q):
            face = multiset_face(m)
            p = jigsaw.face_polytope(face)
            diagnostic, point = jigsaw.interior_certificate(face)
            strict[m] = strictly_feasible(p)
            assert (point is not None) == strict[m]
            assert diagnostic.contains_line == (point is None)
            if point is None:
                gens = jigsaw.effective_generators(jigsaw.face_rows(face)).generators
                lam = diagnostic.line_combination
                assert min(lam) >= 0 and any(lam)
                assert not any(sum(c * g[j] for c, g in zip(lam, gens))
                               for j in range(len(gens[0])))
            else:
                assert strictly_contains(p, point)
        expected = [jigsaw.face_key(multiset_face(m)) for m in edge_multisets(q)
                    if not strict[m]]
        report = jigsaw.degenerate_face_report(q, jigsaw.multiset_rows(q))
        assert report["strict_feasibility_zero_multisets"] == expected
        assert report["volume_zero_multisets"] == expected

    @pytest.mark.parametrize("q", [0, 1, 2, 3, 4])
    def test_certificates_match_the_double_description(self, q):
        for m in edge_multisets(q):
            face = multiset_face(m)
            diagnostic, point = jigsaw.interior_certificate(face)
            oracle, oracle_point = dd_interior_certificate(face)
            assert diagnostic.contains_line == oracle.contains_line
            assert (point is None) == (oracle_point is None)
            assert (point is None) == diagnostic.contains_line == (m == (0, 0, 0, q + 1))

    @pytest.mark.parametrize("q", [1, 3])
    def test_report_runs_no_double_description(self, q, monkeypatch):
        rows = list(jigsaw.multiset_rows(q))
        calls = []
        monkeypatch.setattr(polytope, "dd_cone", lambda *args: calls.append(args))
        report = jigsaw.degenerate_face_report(q, rows)
        assert calls == []
        assert report["oracles_agree"]
        assert report["cone_line_multisets"] == [jigsaw.face_key(("36",) * (q + 1))]

    def test_jigsaw_command_builds_no_face_polytope(self, tmp_path, monkeypatch):
        # The report decides strict feasibility from one certificate per edge
        # multiset; the face polytopes and their vertex oracle stay unused.
        calls = []
        for name in ("face_polytope", "strictly_feasible"):
            def counted(*args, _name=name, _fn=getattr(jigsaw, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(jigsaw, name, counted)
        assert main(["--output", str(tmp_path), "jigsaw", "--q", "2"]) == 0
        assert calls == []

    def test_jigsaw_command_evaluates_no_affine_form(self, tmp_path, monkeypatch):
        # interior_certificate tests the face rows at its witness in integers.
        # src/ has no exact evaluation of a form (tests_support.evaluate is the
        # tests' own), so plant one that records any call.
        calls = []

        def counted(form, point):
            calls.append(form)
            return evaluate(form, point)
        monkeypatch.setattr(AffineForm, "evaluate", counted, raising=False)
        assert main(["--output", str(tmp_path), "jigsaw", "--q", "2"]) == 0
        assert calls == []

    def test_jigsaw_command_computes_each_face_volume_once(self, tmp_path, monkeypatch):
        # the degenerate-face report reads the volumes of jigsaw_check's report
        calls = []
        volume = jigsaw.face_volume

        def counted(m, **kw):
            calls.append(m)
            return volume(m, **kw)
        monkeypatch.setattr(jigsaw, "face_volume", counted)
        assert main(["--output", str(tmp_path), "jigsaw", "--q", "2"]) == 0
        assert sorted(calls) == sorted(edge_multisets(2)) and len(calls) == 20

    def test_alpha_command_certifies_the_fan_once(self, tmp_path, monkeypatch):
        calls = []
        fan = jigsaw.edge_fan

        def counted():
            calls.append(1)
            return fan()
        monkeypatch.setattr(jigsaw, "edge_fan", counted)
        assert main(["--output", str(tmp_path), "alpha", "--q", "40"]) == 0
        assert len(calls) == 1

    def test_q1_reference_face_is_not_degenerate_here(self):
        # the (57),(57) system admits the interior point below, so the
        # report must mark the discrepancy rather than the reference face
        p = jigsaw.face_polytope(("57", "57"))
        point = (F(3, 10), F(-1, 20), F(3, 10), F(-1, 20), F(3, 10))
        assert strictly_contains(p, point)
        report = jigsaw.degenerate_face_report(1, jigsaw.multiset_rows(1))
        assert report["volume_zero_multisets"] == ["36,36"]
        assert report["reference_empty_interior_face"] == "57,57"
        assert report["reference_face_is_degenerate"] is False
        assert report["oracles_agree"]
        assert report["cone_line_multisets"] == ["36,36"]


class TestSymmetryAndUnions:
    def test_place_permutation_symmetry_q1(self):
        for face in jigsaw.all_faces(1):
            v = jigsaw.face_polytope(face).volume()
            assert jigsaw.face_polytope(face[::-1]).volume() == v

    def test_place_permutation_symmetry_q2_sampled(self):
        rng = random.Random(17)
        faces = rng.sample(jigsaw.all_faces(2), 5)
        for face in faces:
            v = jigsaw.face_polytope(face).volume()
            for perm in permutations(face):
                assert jigsaw.face_polytope(tuple(perm)).volume() == v

    @pytest.mark.parametrize("q", [0, 1])
    def test_union_of_adjacent_rows(self, q):
        """Merging adjacent edge blocks deletes the reversed inequality."""
        adjacent = [("57", "45"), ("45", "34"), ("34", "36")]
        merged_rows = {("57", "45"): ((-1, 0), (2, 1)),
                       ("45", "34"): ((-3, -1), (1, 1)),
                       ("34", "36"): ((-2, -1), (0, 1))}
        other = ["45"] * q  # fixed edges at the remaining places
        for e1, e2 in adjacent:
            dim = 2 * q + 3
            rows = jigsaw.face_rows((e1,) + tuple(other))
            union_forms = rows[:3] + rows[5:]  # every row but the place-0 block
            for cs, ct in merged_rows[(e1, e2)]:
                row = [0] * dim
                row[1] = cs
                row[2] = ct
                union_forms.append(AffineForm.make(row, 0))
            merged = HPolytope(dim, union_forms)
            v1 = jigsaw.face_polytope((e1,) + tuple(other)).volume()
            v2 = jigsaw.face_polytope((e2,) + tuple(other)).volume()
            assert v1 + v2 == merged.volume()


class TestPyramid:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_pyramid_identity(self, q):
        vol_p = jigsaw.pyramid_polytope(q).volume()
        vol_base = jigsaw.pyramid_base_polytope(q).volume()
        assert vol_p == vol_base / (2 * q + 3)
        assert vol_base == jigsaw.alpha_closed_form(q)

    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_change_of_variables_preserves_union(self, q):
        m = jigsaw.census_change_of_variables(q)
        transformed = transform_polytope(jigsaw.union_polytope(q), m)
        assert transformed.volume() == hand_pyramid_polytope(q).volume()

    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_pulled_back_pyramids_equal_the_hand_lists(self, q):
        assert jigsaw.pyramid_polytope(q).vertices == hand_pyramid_polytope(q).vertices
        assert (jigsaw.pyramid_base_polytope(q).vertices
                == hand_pyramid_base_polytope(q).vertices)

    def test_pyramid_base_slice_is_rectangle(self):
        p = slice_polytope(jigsaw.pyramid_base_polytope(1), [(0, F(3, 5)), (1, F(2, 5))])
        assert p.volume() == F(2, 5)
        assert set(p.vertices) == {(0, 0), (0, 1), (F(2, 5), 0), (F(2, 5), 1)}


class TestSliceCensus:
    @pytest.mark.parametrize("a1,expected", [(F(1, 5), 7), (F(2, 5), 11), (F(3, 5), 11)])
    def test_positive_piece_counts(self, a1, expected):
        census = jigsaw.slice_census(a1)
        assert census.positive_count == expected
        assert census.total_area == a1
        assert census.union_verified
        for piece in census.pieces.values():
            if piece.area > 0:
                assert piece.vertex_count in (3, 4)

    def test_a0_invariance(self):
        # a0 has a nonzero coefficient only in the rows a0 - a1 >= 0 and
        # a2 - a0 >= 0, common to all 16 faces; at a2 = 1 they are constant
        # and hold for every a0 in [a1, 1], so the census cannot depend on a0
        rows = jigsaw.census_rows()
        assert len(rows) == 16
        common = {AffineForm((1, -1, 0, 0, 0), 0), AffineForm((-1, 0, 1, 0, 0), 0)}
        for face, pulled in rows.items():
            assert {row for row in pulled if row.coeffs[0]} == common, face

    def test_random_samples_tile_the_rectangle(self):
        rng = random.Random(8)
        for _ in range(4):
            a1 = F(rng.randint(1, 19), 20)
            census = jigsaw.slice_census(a1)
            assert census.total_area == a1
            assert census.union_verified

    def test_validation(self):
        with pytest.raises(OutOfRange):
            jigsaw.slice_census(F(6, 5))
        with pytest.raises(OutOfRange):
            jigsaw.slice_census(F(0))

    def test_census_enumerates_only_its_polygons(self, tmp_path, monkeypatch):
        # Each piece is built in two dimensions from the face rows; no face
        # polytope is built and no polytope above dimension 2 is enumerated.
        dims = []
        enumerate_ = polytope._enumerate

        def recorded(dim, rows):
            dims.append(dim)
            return enumerate_(dim, rows)

        def built(face):
            raise AssertionError("the census built a face polytope")

        monkeypatch.setattr(polytope, "_enumerate", recorded)
        monkeypatch.setattr(jigsaw, "face_polytope", built)
        assert main(["--output", str(tmp_path), "slices"]) == 0
        assert dims and set(dims) == {2}


def test_volumes_triangulate_integer_coordinates(tmp_path, monkeypatch):
    # _volume scales the vertices to integers once; every rank and
    # determinant it asks for is then over int, with no Fraction entry.
    inside = []
    seen = []

    def watched(name, fn):
        def wrapper(arg):
            if inside:
                seen.append((name, all(type(x) is int for row in arg for x in row)))
            return fn(arg)
        return wrapper

    def volume(*args, _fn=polytope._volume):
        inside.append(True)
        try:
            return _fn(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(polytope, "_volume", volume)
    for name in ("frac_det", "affine_rank"):
        monkeypatch.setattr(polytope, name, watched(name, getattr(polytope, name)))
    assert main(["--output", str(tmp_path), "jigsaw", "--q", "2"]) == 0
    assert main(["--output", str(tmp_path), "slices"]) == 0
    assert jigsaw.pyramid_polytope(2).volume() == jigsaw.alpha_closed_form(2) / 7
    assert {name for name, _ in seen} == {"frac_det", "affine_rank"}
    assert all(ok for _, ok in seen)
