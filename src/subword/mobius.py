"""The formula route: mu(u, w) from the paper's main theorem.

mu(u, w) in P* is a sum over the embeddings eta of u in w of products of
Mobius values of P0 (:func:`contribution`).  The factors depend only on
position, so :func:`mobius_main` is an O(|u|*|w|) DP over the positions of w.
Its per-embedding terms (``--verbose``) enumerate the embeddings, at a cost
that grows with their number, when read.

The other routes live apart and share no code with this one: the oracle
recursion in ``interval``, the Morse sum in ``morse``, the antichain and
rooted-forest specializations in ``specializations`` and the homotopy report
in ``homotopy``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, check_i64
from .poset import ZERO, FinitePoset
from .words import (
    Embedding,
    Word,
    check_word,
    embeddings,
    format_embedding,
    format_word,
    is_embedding,
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
        import json

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


def contribution(p0, eta: Embedding, w: Word) -> int:
    """Product of per-position factors for one embedding; p0 is a P0 view
    (``verify.AugmentedPoset``) over the ground poset.

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
