"""Words over P, generalized subword order and embeddings.

The interval diagram and the oracle recursion live in module ``interval``;
its diagram names also resolve here (PEP 562), loading it on first access.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import DomainError, InputError, ResourceLimitError
from .poset import ZERO, FinitePoset

Word = tuple[int, ...]
Embedding = tuple[int, ...]

DEFAULT_MAX_NODES = 200_000
DEFAULT_MAX_WORD_LEN = 12
DEFAULT_MAX_CHAINS = 50_000

EMPTY_WORD_TEXT = "∅"


def check_word(poset: FinitePoset, w: Sequence[int]) -> Word:
    for x in w:
        if x == ZERO:
            raise InputError("the adjoined zero is not a word letter")
        poset.check_element(x)
    return tuple(w)


def check_word_len(w: Word, max_word_len: int) -> None:
    if len(w) > max_word_len:
        raise ResourceLimitError(f"|w| = {len(w)} exceeds the word-length cap {max_word_len}")


def parse_word(poset: FinitePoset, text: str) -> Word:
    """Parse a word: concatenated single-character names, or comma-separated."""
    text = text.strip()
    if text in ("", "-", EMPTY_WORD_TEXT):
        return ()
    if "," in text:
        return tuple(poset.id_of(part.strip()) for part in text.split(","))
    if all(len(nm) == 1 for nm in poset.names):
        return tuple(poset.id_of(ch) for ch in text)
    return (poset.id_of(text),)


def format_word(poset: FinitePoset, w: Word) -> str:
    if not w:
        return EMPTY_WORD_TEXT
    if all(len(nm) == 1 for nm in poset.names):
        return "".join(poset.names[x] for x in w)
    return ",".join(poset.names[x] for x in w)


def format_embedding(poset: FinitePoset, eta: Embedding) -> str:
    names = ["0" if x == ZERO else poset.names[x] for x in eta]
    if all(len(nm) == 1 for nm in names):
        return "".join(names)
    return ",".join(names)


def restrict(eta: Embedding) -> Word:
    """The word carried by an expansion: its nonzero letters in order."""
    return tuple(x for x in eta if x != ZERO)


def is_embedding(poset: FinitePoset, eta: Embedding, w: Word) -> bool:
    if len(eta) != len(w):
        return False
    return all(x == ZERO or poset.leq(x, w[j]) for j, x in enumerate(eta))


def is_leq_words(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> bool:
    """u <= w in generalized subword order, for words from outside."""
    return trusted_leq(poset, check_word(poset, u), check_word(poset, w))


def trusted_leq(poset: FinitePoset, u: Word, w: Word) -> bool:
    """u <= w for checked words: greedy leftmost subsequence matching with
    letterwise dominance, read from the poset's precomputed ``above`` sets."""
    above = poset.above
    j = 0
    for letter in w:
        if j < len(u) and letter in above[u[j]]:
            j += 1
    return j == len(u)


def check_interval(poset: FinitePoset, u: Word, w: Word, name: str) -> tuple[Word, Word]:
    """u and w checked, and u <= w, else a :class:`DomainError` naming the caller."""
    u, w = check_word(poset, u), check_word(poset, w)
    if not trusted_leq(poset, u, w):
        raise DomainError(f"{name} requires u <= w")
    return u, w


def lower_covers(poset: FinitePoset, eta: Embedding) -> Iterator[tuple[int, int]]:
    """The words covered by restrict(eta), one per move (j, y) of checked eta.

    Setting slot j to y lowers a letter by one cover of P, or with y ZERO
    deletes a minimal letter from the first slot of its run (runs skip ZERO
    slots).  By McNamara-Sagan these are all the covers of subword order.
    """
    covers_below = poset.covers_below
    prev = ZERO
    for j, x in enumerate(eta):
        if x == ZERO:
            continue
        lower = covers_below[x]
        for y in lower:
            yield j, y
        if not lower and x != prev:
            yield j, ZERO
        prev = x


def embeddings(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> list[Embedding]:
    """All embeddings of u in w, ordered lexicographically by nonzero support."""
    u = check_word(poset, u)
    w = check_word(poset, w)
    above = poset.above
    out: list[Embedding] = []
    eta = [ZERO] * len(w)
    slots: list[int] = []  # the slots of the letters of u placed so far
    i = 0  # the next slot to try for u[len(slots)]
    while True:
        j = len(slots)
        if j < len(u) and i <= len(w) - len(u) + j:  # room for u[j:] from slot i on
            if w[i] in above[u[j]]:
                eta[i] = u[j]
                slots.append(i)
            i += 1
        else:
            if j == len(u):
                out.append(tuple(eta))
            if not slots:
                return out
            i = slots.pop() + 1
            eta[i - 1] = ZERO


def runs(w: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal constant blocks as (letter, start, end), 1-based inclusive."""
    out: list[tuple[int, int, int]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] != w[start]:
            out.append((w[start], start + 1, i))
            start = i
    return out


_INTERVAL_NAMES = ("IntervalDiagram", "build_interval")


def __getattr__(name: str):
    if name not in _INTERVAL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import interval

    return getattr(interval, name)
