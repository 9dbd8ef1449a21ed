"""Field invariants, Euler products, and the leading constant."""

import json
import math
from fractions import Fraction as F

import pytest

from dp4jigsaw import constants as C
from dp4jigsaw.errors import InvalidInvariants, OutOfRange, UnsupportedField

CATALAN = 0.9159655941772190


class TestRho:
    def test_q(self):
        assert C.rho_K(C.get_field("Q")) == pytest.approx(1.0, rel=1e-15)

    def test_qi(self):
        assert C.rho_K(C.get_field("Q(i)")) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_q_sqrt_minus_3(self):
        assert C.rho_K(C.get_field("Q(sqrt-3)")) == \
            pytest.approx(math.pi / (3 * math.sqrt(3)), rel=1e-15)


class TestOmegaArch:
    def test_values(self):
        assert C.omega_arch(C.get_field("Q")) == 4.0
        assert C.omega_arch(C.get_field("Q(i)")) == pytest.approx(4 * math.pi ** 2)
        mixed = C.FieldInvariants("mixed", r1=2, r2=1, abs_disc=1, regulator=1.0,
                                  class_number=1, mu=2)
        assert C.omega_arch(mixed) == pytest.approx(64 * math.pi ** 2)


class TestKronecker:
    def test_chi_minus_4(self):
        vals = [C.kronecker_symbol(-4, n) for n in range(1, 9)]
        assert vals == [1, 0, -1, 0, 1, 0, -1, 0]

    def test_chi_8(self):
        vals = [C.kronecker_symbol(8, n) for n in range(1, 9)]
        assert vals == [1, 0, -1, 0, -1, 0, 1, 0]

    def test_against_square_classification(self):
        """chi_D(p) = 1 exactly when D is a nonzero square mod p."""
        for d in (-4, -3, 8):
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                squares = {(x * x) % p for x in range(1, p)}
                if d % p == 0:
                    expected = 0
                elif d % p in squares:
                    expected = 1
                else:
                    expected = -1
                assert C.kronecker_symbol(d, p) == expected


class TestEulerProduct:
    def test_q_limit(self):
        res = C.finite_density_product(C.get_field("Q"), 10 ** 5)
        limit = 6 / math.pi ** 2
        assert res.limit_low <= limit <= res.limit_high
        assert abs(res.value - limit) <= res.tail_log_bound + 1e-12

    def test_monotone_decreasing_and_brackets(self):
        q = C.get_field("Q")
        limit = 6 / math.pi ** 2
        prev = None
        for bound in (10 ** 3, 10 ** 4, 10 ** 5):
            res = C.finite_density_product(q, bound)
            assert res.limit_low <= limit <= res.limit_high
            if prev is not None:
                assert res.value < prev
            prev = res.value

    def test_exact_partial_bound_2(self):
        assert C.finite_density_product(C.get_field("Q"), 2, exact=True) \
            .exact_partial == F(3, 4)
        assert C.finite_density_product(C.get_field("Q(i)"), 2, exact=True) \
            .exact_partial == F(3, 4)
        # 2 is inert in Q(sqrt-3): no ideal of norm <= 2
        assert C.finite_density_product(C.get_field("Q(sqrt-3)"), 2, exact=True) \
            .exact_partial == F(1)

    def test_qi_product_approaches_zeta_inverse(self):
        qi = C.get_field("Q(i)")
        res = C.finite_density_product(qi, 10 ** 6)
        zeta2, err = C.dedekind_zeta2(qi)
        assert abs(res.value - 1 / zeta2) <= res.tail_log_bound + err + 1e-12

    @pytest.mark.parametrize("field", ["Q", "Q(i)"])
    def test_prime_bound_limit_is_checked_before_the_sieve(self, monkeypatch, field):
        class Sieved(Exception):
            pass

        def sieve(n):
            raise Sieved(n)
        monkeypatch.setattr(C, "primes_up_to", sieve)
        with pytest.raises(OutOfRange):
            C.finite_density_product(C.get_field(field), C.MAX_PRIME_BOUND + 1)
        with pytest.raises(Sieved):  # the limit itself is accepted
            C.finite_density_product(C.get_field(field), C.MAX_PRIME_BOUND)

    def test_exact_limit_is_checked_before_the_sieve(self, monkeypatch):
        def sieved(*args):
            raise AssertionError("sieved past the exact-product limit")
        monkeypatch.setattr(C, "_prime_norms", sieved)
        with pytest.raises(OutOfRange):
            C.finite_density_product(C.get_field("Q"), 10 ** 5, exact=True)

    def test_unsupported_field(self):
        cubic = C.FieldInvariants("cubic", r1=3, r2=0, abs_disc=49, regulator=1.0,
                                  class_number=1, mu=2)
        with pytest.raises(UnsupportedField):
            C.finite_density_product(cubic, 100)


class TestPrimeNorms:
    """_prime_norms reads chi_d off one period; the oracle calls it per prime."""

    @staticmethod
    def per_prime(inv, bound):
        norms = []
        for p in C.primes_up_to(bound).tolist():
            chi = C.kronecker_symbol(inv.quad_disc, p)
            if chi == 1:
                norms.extend([p, p])
            elif chi == 0:
                norms.append(p)
            elif p * p <= bound:
                norms.append(p * p)
        return norms

    @pytest.mark.parametrize("label", ["Q(i)", "Q(sqrt-3)", "Q(sqrt2)"])
    def test_builtin_fields(self, label):
        inv = C.get_field(label)
        norms = C._prime_norms(inv, 2 * 10 ** 5)
        assert norms == self.per_prime(inv, 2 * 10 ** 5)
        assert all(type(n) is int for n in norms)

    def test_field_json(self, tmp_path):
        # Q(sqrt-7), and Z[sqrt-1] written by its non-fundamental d = -1:
        # for d = 3 mod 4 the period is 4|d| and 2 is alone in its class
        for label, d in (("Q(sqrt-7)", -7), ("Z[sqrt-1]", -1)):
            path = tmp_path / "field.json"
            path.write_text(json.dumps({"label": label, "r1": 0, "r2": 1,
                                        "abs_disc": 7, "regulator": 1.0,
                                        "class_number": 1, "mu": 2, "quad_disc": d}))
            inv = C.load_field(str(path))
            assert C._prime_norms(inv, 10 ** 4) == self.per_prime(inv, 10 ** 4)

    def test_every_small_discriminant(self):
        for d in [d for d in range(-60, 61) if d] + [4 * 10 ** 6 + 12, -(10 ** 9 + 7)]:
            inv = C.FieldInvariants("quadratic", r1=2, r2=0, abs_disc=abs(d),
                                    regulator=1.0, class_number=1, mu=2, quad_disc=d)
            assert C._prime_norms(inv, 2000) == self.per_prime(inv, 2000), d

    def test_zero_discriminant_is_invalid(self):
        with pytest.raises(InvalidInvariants):
            C.FieldInvariants("bad", r1=2, r2=0, abs_disc=1, regulator=1.0,
                              class_number=1, mu=2, quad_disc=0)


class TestZeta:
    def test_l2_chi_minus_4_is_catalan(self):
        value, tail = C.dirichlet_l2(-4)
        assert abs(value - CATALAN) <= tail + 1e-12

    def test_l2_blocking_does_not_change_the_value(self):
        """fsum is exactly rounded: the blocks give the one-list sum."""
        terms = 2 * C.L2_BLOCK + 7
        chi = [C.kronecker_symbol(8, n % 8) for n in range(8)]
        whole = math.fsum(chi[n % 8] / n ** 2 for n in range(1, terms + 1))
        assert C.dirichlet_l2(8, terms=terms)[0] == whole
        assert C.dirichlet_l2(-4)[0] == 0.9159655941767191

    def test_zeta2_q(self):
        z, _ = C.dedekind_zeta2(C.get_field("Q"))
        assert z == pytest.approx(math.pi ** 2 / 6, rel=1e-15)

    def test_zeta2_supplied(self):
        cubic = C.FieldInvariants("cubic", r1=3, r2=0, abs_disc=49, regulator=0.5,
                                  class_number=1, mu=2, zeta2=1.1)
        z, _ = C.dedekind_zeta2(cubic)
        assert z == 1.1

    def test_zeta2_missing(self):
        cubic = C.FieldInvariants("cubic", r1=3, r2=0, abs_disc=49, regulator=0.5,
                                  class_number=1, mu=2)
        with pytest.raises(UnsupportedField):
            C.dedekind_zeta2(cubic)


class TestLeadingConstant:
    def test_q(self):
        b = C.leading_constant(C.get_field("Q"))
        assert b.c == pytest.approx(12 / math.pi ** 2, rel=1e-14)
        assert b.log_exponent == 2
        assert b.b_exponent == 3
        assert b.symbolic["c"] == "12/pi^2"
        # independent assembly order
        alt = float(F(1, 2)) * C.rho_K(C.get_field("Q")) * 4.0 / (math.pi ** 2 / 6)
        assert b.c == pytest.approx(alt, rel=1e-14)

    def test_qi(self):
        qi = C.get_field("Q(i)")
        b = C.leading_constant(qi)
        zeta2, _ = C.dedekind_zeta2(qi)
        expected = 0.5 * (math.pi / 4) / 4 * (4 * math.pi ** 2) / zeta2
        assert b.c == pytest.approx(expected, rel=1e-12)
        assert b.log_exponent == 2

    def test_unit_rank_one_field(self):
        b = C.leading_constant(C.get_field("Q(sqrt2)"))
        assert b.log_exponent == 4
        assert b.b_exponent == 5

    def test_exponent_cross_check(self):
        for label in C.BUILTIN_FIELDS:
            inv = C.get_field(label)
            b = C.leading_constant(inv)
            assert b.log_exponent == (1 + 2 * (inv.q + 1)) - 1
            assert b.rel_error <= 1e-10


class TestPredictedCount:
    def test_at_e(self):
        q = C.get_field("Q")
        assert C.predicted_count(q, math.e) == \
            pytest.approx(C.leading_constant(q).c * math.e, rel=1e-12)

    def test_at_1e6(self):
        assert C.predicted_count(C.get_field("Q"), 1e6) == \
            pytest.approx(2.321e8, rel=2e-3)

    def test_near_one_tends_to_zero(self):
        assert C.predicted_count(C.get_field("Q"), 1.0 + 1e-9) < 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            C.predicted_count(C.get_field("Q"), 1.0)


class TestInvariantsIO:
    def test_json_round_trip(self, tmp_path):
        inv = C.get_field("Q(i)")
        path = tmp_path / "field.json"
        path.write_text(json.dumps(inv.to_json_dict()))
        again = C.load_field(str(path))
        assert again == inv

    @pytest.mark.parametrize("text", [None, "{not json", '{"label": "Q"}', "[1, 2]",
                                      '{"label": "Q", "r1": "one", "r2": 0, '
                                      '"abs_disc": 1, "regulator": 1, '
                                      '"class_number": 1, "mu": 2}'],
                             ids=["missing", "not-json", "missing-key", "not-object",
                                  "bad-int"])
    def test_unreadable_field_file(self, tmp_path, text):
        path = tmp_path / "field.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(InvalidInvariants):
            C.load_field(str(path))

    def test_invalid_invariants(self):
        with pytest.raises(InvalidInvariants):
            C.FieldInvariants("bad", r1=0, r2=0, abs_disc=1, regulator=1.0,
                              class_number=1, mu=2)
        with pytest.raises(InvalidInvariants):
            C.FieldInvariants("bad", r1=1, r2=0, abs_disc=1, regulator=-1.0,
                              class_number=1, mu=2)
        with pytest.raises(InvalidInvariants):
            C.FieldInvariants("bad", r1=1, r2=0, abs_disc=1, regulator=1.0,
                              class_number=1, mu=3)
