import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from subword import (
    DomainError,
    IntegerOverflowError,
    IntPolynomial,
    binom,
    builtin_poset,
    chebyshev_T,
    chebyshev_T_closed,
    mobius_closed_form,
    mobius_oracle,
    tomie_T,
    verify_chebyshev,
)


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0
    assert binom(2, 5) == 0
    assert binom(0, 0) == 1


@given(st.integers(0, 30), st.integers(0, 30))
def test_binom_matches_math_comb(n, k):
    assert binom(n, k) == (math.comb(n, k) if k <= n else 0)


def test_polynomial_trimming():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coefficients == (1, 2)
    assert p.coeff(0) == 1 and p.coeff(5) == 0
    assert p == IntPolynomial((1, 2)) and hash(p) == hash(IntPolynomial((1, 2)))
    assert IntPolynomial((0, 0)).coefficients == () and p != IntPolynomial((1, 2, 3))


def test_chebyshev_base_cases():
    assert chebyshev_T(0).coefficients == (1,)
    assert chebyshev_T(1).coefficients == (0, 1)
    assert chebyshev_T(2).coefficients == (-1, 0, 2)
    assert chebyshev_T(3).coefficients == (0, -3, 0, 4)
    with pytest.raises(DomainError):
        chebyshev_T(-1)


def test_closed_form_matches_recurrence():
    for n in range(21):
        assert chebyshev_T_closed(n) == chebyshev_T(n)


def test_parity():
    for n in range(12):
        poly = chebyshev_T(n)
        for m in range(n + 1):
            if (m - n) % 2:
                assert poly.coeff(m) == 0


def test_tomie_reduces_to_chebyshev_at_s2():
    for n in range(15):
        assert tomie_T(2, n) == chebyshev_T(n)


def test_tomie_base_case():
    for s in (1, 2, 3, 4):
        assert tomie_T(s, 0).coefficients == (1,)
    with pytest.raises(DomainError):
        tomie_T(0, 3)


def test_tomie_coefficient_formula():
    # <x^(j-i)> T^s_(i+j) = (-1)^i s^(j-i-1) (C(j,i) s - C(j-1,i)) for j >= 1
    for s in (1, 2, 3):
        for j in range(1, 7):
            for i in range(j + 1):
                expect = (-1) ** i * s ** (j - i - 1) * (
                    binom(j, i) * s - binom(j - 1, i)
                ) if j - i - 1 >= 0 else (-1) ** i * (
                    binom(j, i) * s - binom(j - 1, i)
                ) // s
                assert tomie_T(s, i + j).coeff(j - i) == expect


def test_mobius_closed_form():
    assert mobius_closed_form(0, 1) == 1
    assert mobius_closed_form(1, 1) == -1
    assert mobius_closed_form(1, 2) == -3
    assert mobius_closed_form(2, 3) == 5
    with pytest.raises(DomainError):
        mobius_closed_form(0, 0)


def test_verify_chebyshev_examples():
    assert verify_chebyshev(1, 2).mu == -3
    assert verify_chebyshev(1, 2).equal
    c = verify_chebyshev(0, 0)
    assert c.mu == 1 and c.coeff == 1 and c.equal
    assert verify_chebyshev(1, 1).mu == -1
    with pytest.raises(DomainError):
        verify_chebyshev(2, 1)
    with pytest.raises(DomainError):
        verify_chebyshev(0, 1, s=0)


def test_verify_chebyshev_closed_form_agreement():
    for j in range(1, 6):
        for i in range(j + 1):
            assert verify_chebyshev(i, j).mu == mobius_closed_form(i, j)


def test_verify_chebyshev_oracle_side():
    lam = builtin_poset("lambda")
    for j in range(4):
        for i in range(j + 1):
            assert mobius_oracle(lam, (0,) * i, (2,) * j) == tomie_T(2, i + j).coeff(j - i)


def test_verify_chebyshev_to_j30():
    # the formula route is a position DP, so the grid can reach the i64 bound
    checked = 0
    for s in (1, 2, 3):
        for j in range(31):
            for i in range(j + 1):
                try:
                    check = verify_chebyshev(i, j, s)
                except IntegerOverflowError:
                    continue
                assert check.equal, (i, j, s, check)
                checked += 1
    assert checked > 1000


def test_tomie_T_is_computed_once_per_s_and_n():
    # the verify suite and the chebyshev table ask for each T^s_n many times
    tomie_T.cache_clear()
    for n in range(8):
        for i in range(n // 2 + 1):
            assert verify_chebyshev(i, n - i, 3).equal
    info = tomie_T.cache_info()
    assert (info.misses, info.hits) == (8, sum(n // 2 + 1 for n in range(8)) - 8)
    assert tomie_T(3, 7) is tomie_T(3, 7)
    with pytest.raises(DomainError):
        tomie_T(3, -1)


def test_closed_forms_check_their_divisions():
    # every quotient of the closed forms is exact; a remainder is reported
    from subword.chebyshev import _exact

    assert _exact(-12, 4, "t") == -3
    with pytest.raises(IntegerOverflowError, match="t: non-integer coefficient -3/2"):
        _exact(-6, 4, "t")
