"""The formula route: mu(u, w) from the paper's main theorem.

mu(u, w) in P* is a sum over the embeddings eta of u in w of products of
Mobius values of P0 (:func:`contribution`).  The factors depend only on
position, so each word's column over the positions of w extends its parent
prefix's column at O(|w|) cost (:func:`_columns`): :func:`mobius_main` reads
the columns of the prefixes of u, and :func:`mobius_main_below` those of a
list of words of [empty, w].  A report's per-embedding terms (``--verbose``)
stream the embeddings on each read, in time that grows with their number.

The other routes live apart and share no code with this one: the oracle
recursion in ``interval``, the Morse sum in ``morse``, the antichain and
rooted-forest specializations in ``specializations`` and the homotopy report
in ``homotopy``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError, check_i64
from .poset import ZERO, FinitePoset
from .words import Embedding, Word, check_embedding, check_word, iter_embeddings


class MobiusReport(NamedTuple):
    poset: FinitePoset
    u: Word
    w: Word
    value: int

    @property
    def per_embedding(self) -> Iterator[tuple[Embedding, int]]:
        """The formula's (embedding, contribution) terms, streamed afresh on each read."""
        poset, w = self.poset, self.w
        return ((eta, _contribution(poset, eta, w)) for eta in iter_embeddings(poset, self.u, w))


def contribution(p0, eta: Embedding, w: Word) -> int:
    """Product of per-position factors for one embedding; p0 is a P0 view
    (``verify.AugmentedPoset``) over the ground poset.

    The factor at position j is mu0(eta(j), w(j)), with 1 added exactly when
    eta(j) = 0 and w(j-1) = w(j); at j = 1 that condition is false.
    """
    return _contribution(p0.base, eta, check_embedding(p0.base, eta, w))


def _contribution(poset: FinitePoset, eta: Embedding, w: Word) -> int:
    """:func:`contribution` for an embedding eta of checked w."""
    mu0 = poset.mu0
    product = 1
    for j, x in enumerate(eta):
        factor = mu0(x, w[j])
        if x == ZERO and j > 0 and w[j - 1] == w[j]:
            factor += 1
        product *= factor
    return check_i64(product, "embedding contribution")


def _columns(
    poset: FinitePoset, w: Word, words: Iterable[Word]
) -> Iterator[tuple[Word, list[int]]]:
    """Each listed word u with its column over checked w: entry j is the
    formula's mu(u, w[:j]) in exact ints.

    u's column is its parent prefix's column extended by u's last letter, so
    each word must come after its parent prefix; one that does not, or ends
    in a letter not of P, is an :class:`InputError`, so each letter of each
    word is checked once.
    """
    mu0, above = poset.mu0, poset.above
    skips = [mu0(ZERO, b) + (j > 0 and w[j - 1] == b) for j, b in enumerate(w)]
    empty = [1]
    for skip in skips:
        empty.append(empty[-1] * skip)
    columns: dict[Word, list[int]] = {(): empty}
    factors: dict[int, list[int]] = {}  # letter x: mu0(x, w[j]), 0 where x is not below
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
        yield u, columns[u]


def mobius_main(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> MobiusReport:
    """The formula route: the columns of the prefixes of u, read at u; only
    that value is i64-checked, so a prefix of u may overflow where u does not.
    A u not <= w has no embedding in w, so its value is 0 with no test."""
    u = check_word(poset, u)
    w = check_word(poset, w)
    *_, (_, column) = _columns(poset, w, [u[:k] for k in range(len(u) + 1)])
    return MobiusReport(poset, u, w, check_i64(column[-1], "mobius_main"))


def mobius_main_below(
    poset: FinitePoset, w: Sequence[int], words: Iterable[Word]
) -> dict[Word, int]:
    """The formula for many u at once: {u: mu(u, w)} for each word u of
    ``words``, the table the interval suites check the other routes against.

    ``words`` lists words, each after its parent prefix (shortest first, as
    the node order of [empty, w] does); a word not <= w gets 0, and each
    value is i64-checked.
    """
    w = check_word(poset, w)
    columns = _columns(poset, w, words)
    return {u: check_i64(column[-1], "mobius_main_below") for u, column in columns}
