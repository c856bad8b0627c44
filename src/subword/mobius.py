"""Mobius evaluators for generalized subword order.

Three independent routes compute mu(u, w): the per-embedding product formula
(:func:`mobius_main`), the classical recursion over an explicit interval
diagram (:func:`mobius_oracle`), and the discrete Morse sum (module
``morse``).  The antichain and rooted-forest specializations plus the
wedge-of-spheres homotopy report live here as well.

The formula's factors depend only on position, so :func:`mobius_main` is an
O(|u|*|w|) DP over the positions of w.  Its per-embedding terms (``--verbose``)
enumerate the embeddings, at a cost that grows with their number, when read.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Sequence
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, InputError, UnsupportedPosetError, check_i64
from .poset import ZERO, AugmentedPoset, FinitePoset, mobius_hat_chain_count
from .words import (
    DEFAULT_MAX_NODES,
    DEFAULT_MAX_WORD_LEN,
    Embedding,
    Word,
    build_interval,
    check_word,
    embeddings,
    format_embedding,
    format_word,
    interval_covers,
    is_embedding,
    restrict,
    runs,
    trusted_leq,
)


class MobiusReport(NamedTuple):
    poset: FinitePoset
    u: Word
    w: Word
    value: int
    method: str  # formula | oracle | morse
    per_embedding: Sequence[tuple[Embedding, int]] = ()
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


class HomotopyReport(NamedTuple):
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


class _EmbeddingTerms(Sequence):
    """(embedding, contribution) pairs of checked u <= w, built on first read.

    Equal and hashed by (poset, u, w), so reports of one interval compare
    equal without building their terms.
    """

    def __init__(self, poset: FinitePoset, u: Word, w: Word):
        self._args = (poset, u, w)

    @cached_property
    def _terms(self) -> tuple[tuple[Embedding, int], ...]:
        poset, u, w = self._args
        return tuple((eta, _contribution(poset, eta, w)) for eta in embeddings(poset, u, w))

    def __getitem__(self, i):
        return self._terms[i]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, _EmbeddingTerms) and self._args == other._args

    def __hash__(self) -> int:
        return hash(self._args)


def mobius_main(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> MobiusReport:
    """The formula route: row[k] sums the per-embedding products over prefixes
    of w placing u[:k]; exact ints inside, only the value is i64-checked."""
    u = check_word(poset, u)
    w = check_word(poset, w)
    if not trusted_leq(poset, u, w):
        return MobiusReport(poset, u, w, 0, "formula", (), comparable=False)
    mu0, above = poset.mu0, poset.above
    row = [1] + [0] * len(u)
    for j, b in enumerate(w):
        skip = mu0(ZERO, b) + (j > 0 and w[j - 1] == b)
        for k in range(min(j + 1, len(u)), 0, -1):
            x = u[k - 1]
            row[k] = row[k] * skip + (row[k - 1] * mu0(x, b) if b in above[x] else 0)
        row[0] *= skip
    value = check_i64(row[len(u)], "mobius_main")
    return MobiusReport(poset, u, w, value, "formula", _EmbeddingTerms(poset, u, w))


def mobius_main_below(
    poset: FinitePoset,
    w: Sequence[int],
    words: Iterable[Word] | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> dict[Word, int]:
    """The formula route for every u <= w at once: {u: mu(u, w)}.

    The DP of :func:`mobius_main` reads u one letter at a time, so the column
    of u over the positions of w is its parent prefix's column extended by
    u's last letter, at O(|w|) per u.  ``words`` lists [empty, w] with each
    word after its parent prefix (shortest first, as the interval's node
    order does); by default it is searched here under ``max_nodes``.  A word
    listed before its parent prefix, or ending in a letter not of P, is an
    :class:`InputError`, so each letter of each word is checked once.
    """
    w = check_word(poset, w)
    if words is None:
        words = sorted(interval_covers(poset, (), w, max_nodes), key=len)
    mu0, above = poset.mu0, poset.above
    skips = [mu0(ZERO, b) + (j > 0 and w[j - 1] == b) for j, b in enumerate(w)]
    empty = [1]
    for skip in skips:
        empty.append(empty[-1] * skip)
    columns: dict[Word, list[int]] = {(): empty}
    factors: dict[int, list[int]] = {}  # letter x: mu0(x, w[j]), 0 where x is not below
    table: dict[Word, int] = {}
    for u in words:
        if u:
            parent, x = columns.get(u[:-1]), u[-1]
            if parent is None:
                raise InputError(f"word {u!r} comes before its parent prefix")
            factor = factors.get(x)
            if factor is None:
                if not 0 <= x < poset.n:  # the adjoined zero too
                    raise InputError(f"word {u!r} ends in {x!r}, not an element of P")
                factor = factors[x] = [mu0(x, b) if b in above[x] else 0 for b in w]
            column = [0]
            for j, skip in enumerate(skips):
                column.append(column[j] * skip + parent[j] * factor[j])
            columns[u] = column
        table[u] = check_i64(columns[u][-1], "mobius_main_below")
    return table


def mobius_oracle(
    poset: FinitePoset,
    u: Sequence[int],
    w: Sequence[int],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
) -> int:
    """Classical Mobius recursion over the explicit interval diagram."""
    diagram = build_interval(poset, u, w, max_nodes=max_nodes, max_word_len=max_word_len)
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


def rank_word(poset: FinitePoset, w: Sequence[int]) -> int:
    """Longest-chain rank of w in [empty word, w]: sum(1 + rk_P(x)) over its
    letters.  Each cover lowers that sum by at least one, and lowering each letter
    along a longest chain of P before deleting it takes exactly that many."""
    return sum(1 + poset.rank_element(x) for x in check_word(poset, w))


def homotopy_type(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> HomotopyReport:
    """Wedge-of-spheres report for ground posets of rank at most 1: |mu(u, w)|
    spheres of dimension rk(w) - rk(u) - 2, read from the formula and ranks."""
    if poset.rank_poset() > 1:
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
