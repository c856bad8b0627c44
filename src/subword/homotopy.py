"""Wedge-of-spheres homotopy report for intervals over ground posets of rank
at most 1, read from the formula route and the word ranks."""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import DomainError, UnsupportedPosetError
from .mobius import mobius_main
from .poset import FinitePoset
from .words import check_word, trusted_leq


class HomotopyReport(NamedTuple):
    sphere_count: int
    dimension: int
    rank_w: int
    rank_u: int

    def describe(self) -> str:
        return f"wedge of {self.sphere_count} spheres, dim {self.dimension}"


def rank_word(poset: FinitePoset, w: Sequence[int]) -> int:
    """Longest-chain rank of w in [empty word, w]: sum(1 + rk_P(x)) over its
    letters.  Each cover lowers that sum by at least one, and lowering each letter
    along a longest chain of P before deleting it takes exactly that many."""
    return sum(1 + poset.ranks[x] for x in check_word(poset, w))


def homotopy_type(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> HomotopyReport:
    """Wedge-of-spheres report for ground posets of rank at most 1: |mu(u, w)|
    spheres of dimension rk(w) - rk(u) - 2, read from the formula and ranks."""
    if max(poset.ranks, default=0) > 1:
        raise UnsupportedPosetError(
            "homotopy_type applies only to ground posets of rank <= 1"
        )
    u = check_word(poset, u)
    w = check_word(poset, w)
    if u == w or not trusted_leq(poset, u, w):
        raise DomainError("homotopy_type requires u < w")
    rk_w = rank_word(poset, w)
    rk_u = rank_word(poset, u)
    if rk_w - rk_u < 2:
        raise DomainError(
            "degenerate interval: rank gap below 2 has no sphere dimension"
        )
    mu = mobius_main(poset, u, w).value
    return HomotopyReport(abs(mu), rk_w - rk_u - 2, rk_w, rk_u)
