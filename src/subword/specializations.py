"""Closed-form specializations of the Mobius function of subword order.

Over an antichain, mu(u, w) is a sign times the number of normal embeddings
(Bjorner, :func:`mobius_bjorner`); over a rooted forest it is a signed count
of Sagan-Vatter normal embeddings (:func:`mobius_forest`).  The verification
suites check both against the formula route.  Each entry checks the kind of
its poset, then leaves its words to the embedding enumeration, which checks
each once.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, check_i64
from .poset import ZERO, FinitePoset
from .words import Embedding, Word, check_embedding, embeddings, iter_embeddings, runs


def is_antichain(poset: FinitePoset) -> bool:
    return not poset.covers


def is_rooted_forest(poset: FinitePoset) -> bool:
    """True iff every element covers at most one element: in P0 every
    nonzero element covers exactly one."""
    return all(len(lower) <= 1 for lower in poset.covers_below)


def normal_embeddings_antichain(
    poset: FinitePoset, u: Sequence[int], w: Sequence[int]
) -> tuple[int, list[Embedding]]:
    """Embeddings with eta(j) != 0 whenever w(j-1) = w(j), over an antichain."""
    if not is_antichain(poset):
        raise DomainError("poset is not an antichain")
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
    count, _ = normal_embeddings_antichain(poset, u, w)
    sign = -1 if (len(w) - len(u)) % 2 else 1
    return sign * count


def _require_forest(poset: FinitePoset) -> None:
    if not is_rooted_forest(poset):
        raise DomainError("poset is not a rooted forest")


def is_normal_forest(poset: FinitePoset, eta: Embedding, w: Sequence[int]) -> bool:
    """Sagan-Vatter normality over a rooted forest.

    Every eta(j) must be w(j), its unique covered element, or 0; in each run of
    a minimal letter only the first slot may be zeroed, and in runs of a
    non-minimal letter the first slot must stay nonzero.
    """
    _require_forest(poset)
    return _normal_forest(poset, eta, check_embedding(poset, eta, w))


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
    return _defect(poset, eta, check_embedding(poset, eta, w))


def _defect(poset: FinitePoset, eta: Embedding, w: Word) -> int:
    """:func:`defect` for checked w."""
    below = poset.covers_below
    return sum(
        1 for j, x in enumerate(eta) if x != w[j] and x in (below[w[j]] or (ZERO,))
    )


def mobius_forest(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> int:
    """Signed normal-embedding count, for any rooted forest."""
    _require_forest(poset)
    total = sum(
        -1 if _defect(poset, eta, w) % 2 else 1
        for eta in iter_embeddings(poset, u, w)
        if _normal_forest(poset, eta, w)
    )
    return check_i64(total, "mobius_forest")
