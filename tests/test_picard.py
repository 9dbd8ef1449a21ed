"""Degrees of the Cox generators and the two Picard bases."""

import random

import pytest

from dp4jigsaw.errors import IndexOutOfRange
from dp4jigsaw.geometry._intlinalg import bareiss_det
from tests_support import (L_DEGREES, LOG_ANTICANONICAL_L, DivisorClass,
                           generator_degree, torsor_monomial_degrees)


def test_degree_a6_in_l_basis():
    assert generator_degree(6).coords_l == (1, -1, 0, 0, -1, -1)


def test_degree_a1_in_boundary_basis():
    assert generator_degree(1).coords_A == (-1, -1, -1, -1, 0, 1)


def test_degree_a9_in_boundary_basis():
    assert generator_degree(9).coords_A == (2, 3, 4, 1, 1, -1)


def test_degree_a2_in_boundary_basis():
    assert generator_degree(2).coords_A == (1, 2, 3, 0, 1, -1)


def test_index_range():
    for bad in (0, 10, -1):
        with pytest.raises(IndexOutOfRange):
            generator_degree(bad)


def test_base_change_is_unimodular():
    m = [[L_DEGREES[i][r] for i in (3, 4, 5, 6, 7, 8)] for r in range(6)]
    assert abs(bareiss_det(m)) == 1


def test_round_trip_on_generators():
    for i in range(1, 10):
        d = generator_degree(i)
        assert DivisorClass.from_A(d.coords_A).coords_l == d.coords_l
        assert DivisorClass.from_l(d.coords_l).coords_A == d.coords_A


def test_round_trip_on_random_classes():
    rng = random.Random(31)
    for _ in range(1000):
        vec = tuple(rng.randint(-50, 50) for _ in range(6))
        via_a = DivisorClass.from_l(vec)
        assert DivisorClass.from_A(via_a.coords_A).coords_l == vec
        via_l = DivisorClass.from_A(vec)
        assert DivisorClass.from_l(via_l.coords_l).coords_A == vec


def test_torsor_monomials_share_log_anticanonical_degree():
    m1, m2, m3 = torsor_monomial_degrees()
    assert m1.coords_l == m2.coords_l == m3.coords_l == LOG_ANTICANONICAL_L
    assert m1.coords_A == m2.coords_A == m3.coords_A
