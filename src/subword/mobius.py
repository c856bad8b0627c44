"""Mobius evaluators for generalized subword order.

Three independent routes compute mu(u, w): the per-embedding product formula
(:func:`mobius_main`), the classical recursion over an explicit interval
diagram (:func:`mobius_oracle`), and the discrete Morse sum (module
``morse``).  The antichain and rooted-forest specializations plus the
wedge-of-spheres homotopy report live here as well.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, UnsupportedPosetError, check_i64
from .poset import ZERO, AugmentedPoset, FinitePoset, mobius_hat_chain_count
from .words import (
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_WORD_LEN,
    Embedding,
    IntervalDiagram,
    Word,
    build_interval,
    check_word,
    embeddings,
    format_embedding,
    format_word,
    is_embedding,
    restrict,
    runs,
    trusted_leq,
)


@dataclass(frozen=True)
class MobiusReport:
    poset: FinitePoset
    u: Word
    w: Word
    value: int
    method: str  # formula | oracle | morse
    per_embedding: tuple[tuple[Embedding, int], ...] = ()
    comparable: bool = True

    def to_json(self) -> str:
        return json.dumps(
            {
                "u": format_word(self.poset, self.u),
                "w": format_word(self.poset, self.w),
                "value": self.value,
                "method": self.method,
                "comparable": self.comparable,
                "per_embedding": [
                    {"embedding": format_embedding(self.poset, eta), "contribution": c}
                    for eta, c in self.per_embedding
                ],
            }
        )


@dataclass(frozen=True)
class HomotopyReport:
    sphere_count: int
    dimension: int
    rank_w: int
    rank_u: int

    def describe(self) -> str:
        return f"wedge of {self.sphere_count} spheres, dim {self.dimension}"


def contribution(p0: AugmentedPoset, eta: Embedding, w: Word) -> int:
    """Product of per-position factors for one embedding.

    The factor at position j is mu0(eta(j), w(j)), with 1 added exactly when
    eta(j) = 0 and w(j-1) = w(j); at j = 1 that condition is false.
    """
    poset = p0.base
    w = check_word(poset, w)
    if not is_embedding(poset, eta, w):
        raise DomainError("eta is not an embedding in w")
    return _contribution(poset, eta, w)


def _contribution(poset: FinitePoset, eta: Embedding, w: Word) -> int:
    """:func:`contribution` for an embedding eta of checked w."""
    mu0 = poset.mu0
    product = 1
    for j, x in enumerate(eta):
        factor = mu0(x, w[j])
        if x == ZERO and j > 0 and w[j - 1] == w[j]:
            factor += 1
        product = check_i64(product * factor, "embedding contribution")
    return product


def mobius_main(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> MobiusReport:
    """Sum of per-embedding contributions; the main formula route."""
    u = check_word(poset, u)
    w = check_word(poset, w)
    if not trusted_leq(poset, u, w):
        return MobiusReport(poset, u, w, 0, "formula", (), comparable=False)
    per = tuple((eta, _contribution(poset, eta, w)) for eta in embeddings(poset, u, w))
    value = check_i64(sum(c for _, c in per), "mobius_main")
    return MobiusReport(poset, u, w, value, "formula", per)


def mobius_oracle(
    poset: FinitePoset,
    u: Sequence[int],
    w: Sequence[int],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Classical Mobius recursion over the explicit interval diagram."""
    diagram = build_interval(poset, u, w, max_nodes=max_nodes, max_word_len=max_word_len)
    return mobius_oracle_from_diagram(diagram)


def mobius_oracle_from_diagram(diagram: IntervalDiagram) -> int:
    return diagram.mobius_bottom_to()[diagram.top]


def normal_embeddings_antichain(
    poset: FinitePoset, u: Sequence[int], w: Sequence[int]
) -> tuple[int, list[Embedding]]:
    """Embeddings with eta(j) != 0 whenever w(j-1) = w(j), over an antichain."""
    if not poset.is_antichain():
        raise DomainError("normal_embeddings_antichain requires an antichain")
    u = check_word(poset, u)
    w = check_word(poset, w)
    normal = [
        eta
        for eta in embeddings(poset, u, w)
        if all(
            eta[j] != ZERO or j == 0 or w[j - 1] != w[j]
            for j in range(len(w))
        )
    ]
    return len(normal), normal


def mobius_bjorner(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> int:
    """Sign times the normal-embedding count, for subword order on an antichain."""
    if not poset.is_antichain():
        raise DomainError("mobius_bjorner requires an antichain")
    u = check_word(poset, u)
    w = check_word(poset, w)
    if not trusted_leq(poset, u, w):
        return 0
    count, _ = normal_embeddings_antichain(poset, u, w)
    sign = -1 if (len(w) - len(u)) % 2 else 1
    return sign * count


def _require_forest(poset: FinitePoset) -> None:
    if not poset.is_rooted_forest():
        raise DomainError("poset is not a rooted forest")


def is_normal_forest(poset: FinitePoset, eta: Embedding, w: Sequence[int]) -> bool:
    """Sagan-Vatter normality over a rooted forest.

    Every eta(j) must be w(j), its unique covered element, or 0; in each run of
    a minimal letter only the first slot may be zeroed, and in runs of a
    non-minimal letter the first slot must stay nonzero.
    """
    _require_forest(poset)
    w = check_word(poset, w)
    if not is_embedding(poset, eta, w):
        raise DomainError("eta is not an embedding in w")
    return _normal_forest(poset, eta, w)


def _normal_forest(poset: FinitePoset, eta: Embedding, w: Word) -> bool:
    """:func:`is_normal_forest` for an embedding eta of checked w."""
    below = poset.covers_below
    for j, x in enumerate(eta):
        if x != ZERO and x != w[j] and x not in below[w[j]]:
            return False
    for letter, start, end in runs(w):
        if not below[letter]:
            if any(eta[j - 1] == ZERO for j in range(start + 1, end + 1)):
                return False
        elif eta[start - 1] == ZERO:
            return False
    return True


def defect(poset: FinitePoset, eta: Embedding, w: Sequence[int]) -> int:
    """Number of positions where eta drops one cover step below w.

    For a minimal letter the unique covered element is the adjoined zero, so a
    deletion there counts toward the defect.
    """
    _require_forest(poset)
    return _defect(poset, eta, check_word(poset, w))


def _defect(poset: FinitePoset, eta: Embedding, w: Word) -> int:
    """:func:`defect` for checked w."""
    below = poset.covers_below
    return sum(
        1 for j, x in enumerate(eta) if x != w[j] and x in (below[w[j]] or (ZERO,))
    )


def mobius_forest(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> int:
    """Signed normal-embedding count, for any rooted forest."""
    _require_forest(poset)
    u = check_word(poset, u)
    w = check_word(poset, w)
    total = sum(
        -1 if _defect(poset, eta, w) % 2 else 1
        for eta in embeddings(poset, u, w)
        if _normal_forest(poset, eta, w)
    )
    return check_i64(total, "mobius_forest")


def embedding_subposet(
    poset: FinitePoset, eta: Embedding, w: Sequence[int]
) -> list[Word]:
    """The subposet [eta, w]: words admitting an expansion pinched pointwise
    between eta and w, under subword order.

    Distinct from the ambient interval [u, w]; Morse contributions per
    embedding and the Mobius value of this subposet differ in general.
    """
    w = check_word(poset, w)
    if not is_embedding(poset, eta, w):
        raise DomainError("eta is not an embedding in w")
    slots = [poset.interval0(x, w[j]) for j, x in enumerate(eta)]
    out = {restrict(acc) for acc in itertools.product(*slots)}
    return sorted(out, key=lambda v: (len(v), v))


def mobius_embedding_subposet(
    poset: FinitePoset, eta: Embedding, w: Sequence[int]
) -> int:
    """Mobius value from restrict(eta) to w inside the subposet [eta, w].

    restrict(eta) and w are its bottom and top, so this is the chain-count
    Mobius value of the open part between them.
    """
    nodes = embedding_subposet(poset, eta, w)
    bottom, top = restrict(eta), tuple(w)
    if bottom == top:
        return 1
    return mobius_hat_chain_count(
        [v for v in nodes if v not in (bottom, top)],
        lambda a, b: trusted_leq(poset, a, b),
    )


def rank_word(
    poset: FinitePoset,
    w: Sequence[int],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Longest-chain rank of w inside the interval from the empty word to w."""
    w = check_word(poset, w)
    diagram = build_interval(poset, (), w, max_nodes=max_nodes, max_word_len=max_word_len)
    return diagram.ranks[diagram.index[w]]


def homotopy_type(
    poset: FinitePoset,
    u: Sequence[int],
    w: Sequence[int],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> HomotopyReport:
    """Wedge-of-spheres report for ground posets of rank at most 1; the caps
    bound the two rank intervals it builds."""
    if poset.rank_poset() > 1:
        raise UnsupportedPosetError(
            "homotopy_type applies only to ground posets of rank <= 1"
        )
    u = check_word(poset, u)
    w = check_word(poset, w)
    if u == w or not trusted_leq(poset, u, w):
        raise DomainError("homotopy_type requires u < w")
    rk_w = rank_word(poset, w, max_nodes, max_word_len)
    rk_u = rank_word(poset, u, max_nodes, max_word_len)
    if rk_w - rk_u < 2:
        raise DomainError(
            "degenerate interval: rank gap below 2 has no sphere dimension"
        )
    mu = mobius_main(poset, u, w).value
    return HomotopyReport(abs(mu), rk_w - rk_u - 2, rk_w, rk_u)
