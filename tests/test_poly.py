"""Exact polynomial and piecewise-polynomial arithmetic."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordpoly import (
    PiecewisePolynomial,
    Polynomial,
    format_rational,
    order_statistic_density,
    parse_rational,
    pw_expectation,
)

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
polys = st.lists(rationals, max_size=6).map(Polynomial.of)


def poly(*coeffs) -> Polynomial:
    return Polynomial.of(F(c) for c in coeffs)


class TestPolynomial:
    def test_canonical_form_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert poly(0).coeffs == ()
        assert poly().is_zero

    def test_arithmetic(self):
        p, q = poly(1, 2), poly(3, 0, 1)  # 1+2t, 3+t^2
        assert (p + q).coeffs == (F(4), F(2), F(1))
        assert (p * q).coeffs == (F(3), F(6), F(1), F(2))
        assert (p - p).is_zero
        assert (p * F(1, 2)).coeffs == (F(1, 2), F(1))

    def test_eval_and_derivative(self):
        p = poly(1, -3, 2)  # (1-t)(1-2t)
        assert p(F(1)) == 0
        assert p(F(1, 2)) == 0
        assert p.derivative().coeffs == (F(-3), F(4))

    def test_definite_integral(self):
        # integral of 2t on [0, 1] is 1; on [1/2, 1] is 3/4
        p = poly(0, 2)
        assert p.integrate(F(0), F(1)) == 1
        assert p.integrate(F(1, 2), F(1)) == F(3, 4)

    @settings(max_examples=50, deadline=None)
    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_derivative_of_antiderivative(self, p):
        assert p.antideriv().derivative() == p

    @settings(max_examples=50, deadline=None)
    @given(polys, polys)
    def test_equal_values_are_equal_polynomials(self, p, q):
        # products keep their scale; sums and Polynomial.of reduce it
        for r in (p, p * q, p * q * q, p + q, p.antideriv()):
            assert Polynomial.of(r.coeffs) == r
            assert hash(Polynomial.of(r.coeffs)) == hash(r)
            assert r.den > 0 and (not r.num or r.num[-1] != 0)
            assert all(math.gcd(c.numerator, c.denominator) == 1 for c in r.coeffs)
        s = p + q
        assert math.gcd(s.den, *s.num) == 1
        assert (p * q == q * p) and hash(p * q) == hash(q * p)

    def test_unreduced_product_equals_its_reduced_form(self):
        prod = poly(2, 4) * poly(F(1, 2))  # numerators (2, 4) over 2
        reduced = poly(1, 2)
        assert (prod.num, prod.den) != (reduced.num, reduced.den)
        assert prod == reduced and hash(prod) == hash(reduced)
        assert prod != poly(1, 2, 1) and prod != poly(1, 3)

    @settings(max_examples=50, deadline=None)
    @given(polys, rationals, rationals, rationals)
    def test_compose_affine_is_evaluation_at_the_line(self, p, c0, c1, t):
        assert p.compose_affine(c0, c1)(t) == p(c0 + c1 * t)


class TestOrderStatisticDensity:
    def test_rank_one_of_two_unknowns(self):
        # min of two uniforms on [0,1]: density 2(1-t)
        d = order_statistic_density(1, 2, F(0), F(1))
        assert d.coeffs == (F(2), F(-2))

    def test_mass_is_one(self):
        for n in range(1, 6):
            for i in range(1, n + 1):
                d = order_statistic_density(i, n, F(1, 4), F(2, 3))
                assert d.integrate(F(1, 4), F(2, 3)) == 1

    def test_mean_matches_rank_law(self):
        # i-th of n on [a,b] has mean a + (b-a) i/(n+1)
        a, b = F(1, 5), F(4, 5)
        for n in range(1, 5):
            for i in range(1, n + 1):
                d = order_statistic_density(i, n, a, b)
                mean = (d * poly(0, 1)).integrate(a, b)
                assert mean == a + (b - a) * F(i, n + 1)


class TestPiecewise:
    def test_expectation_of_triangular_density(self):
        pw = PiecewisePolynomial((F(0), F(1)), (poly(0, 2),))
        assert pw.mass() == 1
        assert pw_expectation(pw) == F(2, 3)

    def test_canonical_merges_equal_pieces(self):
        pw = PiecewisePolynomial(
            (F(0), F(1, 2), F(1)), (poly(0, 2), poly(0, 2))
        )
        assert pw.canonical() == PiecewisePolynomial(
            (F(0), F(1)), (poly(0, 2),)
        ).canonical()

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial((F(1), F(0)), (poly(1),))


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1/2", F(1, 2)),
            ("0.25", F(1, 4)),
            ("3", F(3)),
            ("0.1", F(1, 10)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q
