"""Chebyshev polynomials of the first kind, the generalized one-parameter
family, and coefficient cross-checks against word-interval Mobius values.

The closed forms divide; each quotient is checked to be exact in integer
arithmetic, so the module needs no rationals and does not import
``fractions`` (with ``decimal``, about 3 ms of a CLI call's start-up).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, IntegerOverflowError
from .mobius import mobius_main
from .poset import builtin_poset


def binom(n: int, k: int) -> int:
    """Binomial coefficient with C(n,k) = 0 for n < 0, k < 0 or k > n."""
    if n < 0 or k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


class _Coefficients(NamedTuple):
    coefficients: tuple[int, ...]


class IntPolynomial(_Coefficients):
    """Dense integer polynomial; coefficients ascending, trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, coefficients: tuple[int, ...]):
        end = len(coefficients)
        while end and coefficients[end - 1] == 0:
            end -= 1
        return super().__new__(cls, tuple(coefficients[:end]))

    def coeff(self, m: int) -> int:
        if 0 <= m < len(self.coefficients):
            return self.coefficients[m]
        return 0


def chebyshev_T(n: int) -> IntPolynomial:
    """T_n via T_0 = 1, T_1 = x, T_n = 2x T_{n-1} - T_{n-2}."""
    if n < 0:
        raise DomainError("chebyshev_T requires n >= 0")
    prev, cur = [1], [0, 1]
    if n == 0:
        return IntPolynomial((1,))
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return IntPolynomial(tuple(cur))


def chebyshev_T_closed(n: int) -> IntPolynomial:
    """T_n from the alternating binomial closed form: the x^(n-2k)
    coefficient is (n/2) (-1)^k / (n-k) * C(n-k, k) * 2^(n-2k)."""
    if n < 0:
        raise DomainError("chebyshev_T_closed requires n >= 0")
    if n == 0:
        return IntPolynomial((1,))
    if n == 1:
        return IntPolynomial((0, 1))
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        numerator = n * (-1) ** k * binom(n - k, k) * 2 ** (n - 2 * k)
        coeffs[n - 2 * k] = _exact(numerator, 2 * (n - k), f"chebyshev_T_closed({n})")
    return IntPolynomial(tuple(coeffs))


@lru_cache(maxsize=1024, typed=True)
def tomie_T(s: int, n: int) -> IntPolynomial:
    """The generalized family T^s_n; s = 2 recovers the classical T_n.
    Kept per (s, n), so a table or a sweep computes each once: the result
    is immutable."""
    if s < 1 or n < 0:
        raise DomainError("tomie_T requires s >= 1 and n >= 0")
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        # (-1)^k s^(n-2k-1) (C(n-k, k) s - C(n-k-1, k)); the power is -1 at 2k = n
        term = (-1) ** k * (binom(n - k, k) * s - binom(n - k - 1, k))
        power = n - 2 * k - 1
        coeffs[n - 2 * k] = (
            term * s**power if power >= 0 else _exact(term, s, f"tomie_T({s},{n})")
        )
    return IntPolynomial(tuple(coeffs))


def _exact(numerator: int, denominator: int, context: str) -> int:
    """numerator / denominator, which must be an integer."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        from fractions import Fraction

        value = Fraction(numerator, denominator)
        raise IntegerOverflowError(f"{context}: non-integer coefficient {value}")
    return quotient


class ChebyshevCheck(NamedTuple):
    i: int
    j: int
    s: int
    mu: int
    coeff: int
    equal: bool


def mobius_closed_form(i: int, j: int) -> int:
    """mu of the standard intervals for s = 2 in closed form, valid for j >= 1."""
    if j < 1:
        raise DomainError("closed form requires j >= 1")
    # (-1)^i 2^(j-i-1) (i+j)/j C(j, i), with the power of 2 moved below when negative
    numerator = (-1) ** i * (i + j) * binom(j, i) * 2 ** max(j - i - 1, 0)
    return _exact(numerator, j * 2 ** max(i - j + 1, 0), f"mobius_closed_form({i},{j})")


def verify_chebyshev(i: int, j: int, s: int = 2) -> ChebyshevCheck:
    """Compare mu(1^i, top^j) over the s-antichain-plus-top poset with the
    x^(j-i) coefficient of the degree-(i+j) generalized Chebyshev polynomial."""
    if not 0 <= i <= j:
        raise DomainError("verify_chebyshev requires 0 <= i <= j")
    if s < 1:
        raise DomainError("verify_chebyshev requires s >= 1")
    # ids: 0 names the element "1", s the top
    mu = mobius_main(builtin_poset(f"lambda:{s}"), (0,) * i, (s,) * j).value
    coeff = tomie_T(s, i + j).coeff(j - i)
    return ChebyshevCheck(i, j, s, mu, coeff, mu == coeff)
