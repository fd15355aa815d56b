"""Exact rational and polynomial arithmetic, and the marginal's result type.

Rationals are ``fractions.Fraction`` (always in lowest terms, positive
denominator); ``Rational`` is exported as an alias.  A polynomial keeps
integer numerators in ascending degree over one positive denominator, with
no trailing zero, the zero polynomial having no numerators: the exact
answers of the engines share factorial-sized denominators, and one
denominator per polynomial spares a gcd per coefficient operation, which
is what makes 1000-node trees fast.  ``Polynomial.coeffs`` gives the
coefficients as lowest-terms rationals.  A marginal density comes back as
a ``PiecewisePolynomial``: one polynomial per interval between consecutive
breakpoints, zero outside the covered span.  It can be evaluated,
integrated (``mass``, ``moment``) and brought to canonical form, which is
how densities are compared; the engines build its pieces as plain
polynomials.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Union

Rational = Fraction

RationalLike = Union[Fraction, int, float, str]


def parse_rational(value: RationalLike) -> Fraction:
    """Parse ``value`` into an exact rational.

    Strings may be "p/q" or decimal text; decimals convert exactly
    ("0.45" -> 9/20).  Floats go through their shortest decimal repr, so a
    literal that survived JSON parsing round-trips exactly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" text (integers render without the denominator)."""
    return str(value)


class NonNormalizedError(ValueError):
    """A density whose total mass is not exactly 1.  Carries the mass."""

    def __init__(self, mass: Fraction):
        super().__init__(f"density has total mass {mass}, expected 1")
        self.mass = mass


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``num[i] / den`` is the coefficient of t^i: integer numerators in
    ascending degree over one positive denominator, with no trailing zero
    (the zero polynomial has no numerators).  Sums are reduced to lowest
    terms; products, powers and antiderivatives are kept as computed, so a
    chain of products pays no gcd until the next sum.  Equality compares
    values, whatever the scale.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int] = (), den: int = 1):
        num = tuple(num)
        while num and not num[-1]:
            num = num[:-1]
        self.num = num
        self.den = den if num else 1

    @staticmethod
    def of(coeffs: Iterable[RationalLike]) -> "Polynomial":
        fracs = [parse_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return Polynomial([c.numerator * (den // c.denominator) for c in fracs], den)

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        c = parse_rational(c)
        return Polynomial((c.numerator,), c.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending degree, each in lowest terms."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.den, other.den
        return len(self.num) == len(other.num) and all(
            x * b == y * a for x, y in zip(self.num, other.num)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.num)!r}, {self.den})"

    def __call__(self, t: RationalLike) -> Fraction:
        if not self.num:
            return Fraction(0)
        t = parse_rational(t)
        p, q = t.numerator, t.denominator
        acc, qpow = self.num[-1], 1
        for c in reversed(self.num[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return Fraction(acc, self.den * qpow)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other, in lowest terms."""
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        a, b = self.num, other.num
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = [c * sa for c in a]
        for i, c in enumerate(b):
            out[i] += c * sb
        while out and not out[-1]:
            out.pop()
        # Cheap probe first: most sums have trivial content, and one gcd
        # settles that without touching every coefficient.
        if out and gcd(den, out[-1], out[0]) > 1:
            g = gcd(den, *out)
            out = [c // g for c in out]
            den //= g
        return Polynomial(out, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.num], self.den)

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if not isinstance(other, Polynomial):
            k = parse_rational(other)
            return Polynomial([c * k.numerator for c in self.num], self.den * k.denominator)
        if not self.num or not other.num:
            return Polynomial()
        out = [0] * (len(self.num) + len(other.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num):
                    if b:
                        out[i + j] += a * b
        return Polynomial(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.num)][1:], self.den)

    def antideriv(self) -> "Polynomial":
        """Antiderivative with zero constant term."""
        scale = lcm(*range(1, len(self.num) + 1))
        return Polynomial(
            [0] + [c * (scale // (i + 1)) for i, c in enumerate(self.num)],
            self.den * scale,
        )

    def integrate(self, a: RationalLike, b: RationalLike) -> Fraction:
        a, b = parse_rational(a), parse_rational(b)
        if a > b:
            raise ValueError(f"empty integration range [{a}, {b}]")
        anti = self.antideriv()
        return anti(b) - anti(a)

    def compose_affine(self, c0: RationalLike, c1: RationalLike) -> "Polynomial":
        """The polynomial t -> p(c0 + c1*t): with c0 = a/q and c1 = b/q,
        Horner's rule on the numerators gives sum_i num_i (a + b*t)^i
        q^(n-i), an integer polynomial over den * q^n."""
        c0, c1 = parse_rational(c0), parse_rational(c1)
        q = lcm(c0.denominator, c1.denominator)
        a, b = c0.numerator * (q // c0.denominator), c1.numerator * (q // c1.denominator)
        acc: list[int] = []
        qpow = 1
        for c in reversed(self.num):
            acc = [a * x + b * y for x, y in zip([*acc, 0], [0, *acc])]
            acc[0] += c * qpow
            qpow *= q
        return Polynomial(acc, self.den * (qpow // q))  # den * q^n (1 for zero)


POLY_ONE = Polynomial.constant(1)
POLY_T = Polynomial.of([0, 1])


def order_statistic_density(rank: int, n: int, a: Fraction, b: Fraction) -> Polynomial:
    """Density of the ``rank``-th smallest of ``n`` uniform samples on [a, b].

    With u = (t-a)/(b-a) this is the classic
    n!/((r-1)!(n-r)!) * u^(r-1) * (1-u)^(n-r) / (b-a), supported on [a, b].
    Requires 1 <= rank <= n and a < b.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"rank {rank} out of range for {n} samples")
    if not a < b:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    w = b - a
    coef = Fraction(factorial(n), factorial(rank - 1) * factorial(n - rank))
    u = Polynomial.of([-a / w, 1 / w])
    one_minus_u = Polynomial.constant(1) - u
    return (u ** (rank - 1)) * (one_minus_u ** (n - rank)) * (coef / w)


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial over [0, 1], zero outside its breakpoint span.

    ``breakpoints`` are strictly increasing rationals b0 < ... < br within
    [0, 1]; piece i is valid on [b_i, b_{i+1}].  The empty function (no
    pieces) is the zero function.
    """

    breakpoints: tuple[Fraction, ...] = ()
    pieces: tuple[Polynomial, ...] = ()

    def __post_init__(self) -> None:
        bps, pcs = self.breakpoints, self.pieces
        if bps or pcs:
            if len(bps) != len(pcs) + 1:
                raise ValueError("need exactly one more breakpoint than pieces")
            if any(b1 >= b2 for b1, b2 in zip(bps, bps[1:])):
                raise ValueError("breakpoints must be strictly increasing")
            if bps[0] < 0 or bps[-1] > 1:
                raise ValueError("breakpoints must lie within [0, 1]")

    def __call__(self, t: RationalLike) -> Fraction:
        t = parse_rational(t)
        bps = self.breakpoints
        if not bps or t < bps[0] or t > bps[-1]:
            return Fraction(0)
        i = bisect.bisect_right(bps, t) - 1
        if i == len(self.pieces):  # right endpoint
            i -= 1
        return self.pieces[i](t)

    def mass(self) -> Fraction:
        """Total integral over the covered span."""
        return sum(
            (
                p.integrate(a, b)
                for p, a, b in zip(self.pieces, self.breakpoints, self.breakpoints[1:])
            ),
            Fraction(0),
        )

    def moment(self) -> Fraction:
        """Integral of t * f(t) over the covered span."""
        return sum(
            (
                (p * POLY_T).integrate(a, b)
                for p, a, b in zip(self.pieces, self.breakpoints, self.breakpoints[1:])
            ),
            Fraction(0),
        )

    def canonical(self) -> "PiecewisePolynomial":
        """Merge adjacent equal pieces and trim zero pieces at both ends.

        Canonical forms compare structurally, which is how cross-engine
        equality of marginal densities is tested.
        """
        bps = list(self.breakpoints)
        pcs = list(self.pieces)
        while pcs and pcs[0].is_zero:
            pcs.pop(0)
            bps.pop(0)
        while pcs and pcs[-1].is_zero:
            pcs.pop()
            bps.pop()
        if not pcs:
            return PiecewisePolynomial()
        out_b = [bps[0]]
        out_p: list[Polynomial] = []
        for b, p in zip(bps[1:], pcs):
            if out_p and out_p[-1] == p:
                out_b[-1] = b
            else:
                out_p.append(p)
                out_b.append(b)
        return PiecewisePolynomial(tuple(out_b), tuple(out_p))


def pw_expectation(f: PiecewisePolynomial) -> Fraction:
    """Expected value of the density ``f``; rejects non-normalized input."""
    mass = f.mass()
    if mass != 1:
        raise NonNormalizedError(mass)
    return f.moment()
