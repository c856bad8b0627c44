"""Discrete Morse theory on intervals of generalized subword order.

Maximal chains are labeled by (position, letter) moves under the
rightmost-zeroing convention, totally ordered lexicographically (a PLO), and
analyzed for skipped intervals, MSIs, J-intervals and criticality.  The Morse
route to the Mobius function sums (-1)^d over critical chains.

Only a chain whose labels strictly decrease can be critical, so every Morse
route reads one walk (:meth:`MorseEngine.walk`): a DFS over those chains in
PLO order that carries each prefix's MSI scan on its stack.  The direct test
of an interval (i, j) (:meth:`MorseEngine.is_si`) reads only a chain's first
j + 2 words: I is skipped iff the PLO-minimum maximal chain through C - I
precedes C, and that chain is decided where it first leaves C.  So a step of
the walk tests the new last index only for the starts i not yet closed
(:meth:`MorseEngine._carry_msi_scan`), and :meth:`MorseEngine.decomposition_direct`
reads the fold of that step.  The scan alone decides a chain's MSIs, J-intervals
(:func:`j_construction`) and sign, and one memoized reader gives all three
(:func:`_read_scan`): every Morse sum folds the walk's scan signs, and
:meth:`MorseEngine.critical_chains` decomposes only the chains whose sign is
nonzero.  The brute-force reference lives with module ``verify``.

The walk is one DFS on an explicit stack that no chain length can overflow.
Walking to a bottom u, it enters a move only if some chain below it reaches
u: labels strictly decrease, so after a move at position p the slots before
p still hold w's letters, and one table of which prefixes of u they can give
decides that exactly (:meth:`MorseEngine._reaches`).  Scans are carried only
to yielded chains, so the walk keeps no state beyond its path.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError, check_i64
from .poset import ZERO, FinitePoset
from .words import (
    DEFAULT_MAX_CHAINS,
    Embedding,
    Word,
    check_word,
    format_word,
    lower_covers,
    restrict,
    trusted_leq,
)

Label = tuple[int, int]  # (1-based position in w, letter id or ZERO)
Move = tuple[tuple[int, int], Label, Word]  # a cover move: its label key, label and word
IndexInterval = tuple[int, int]  # inclusive indices into a chain's word list


class LabeledChain(NamedTuple):
    """A maximal chain of [u, w] with its embedding track and label sequence
    (lists in the live view that :meth:`MorseEngine.walk` yields)."""

    poset: FinitePoset
    words: tuple[Word, ...]  # top w first, bottom u last
    embeddings: tuple[Embedding, ...]
    labels: tuple[Label, ...]

    @property
    def final_embedding(self) -> Embedding:
        return self.embeddings[-1]

    def open_range(self) -> tuple[int, int]:
        """Index range of the open chain C(w, u); empty when hi < lo."""
        return 1, len(self.words) - 2

    def describe(self) -> str:
        words = " > ".join(format_word(self.poset, v) for v in self.words)
        labels = ", ".join(self._label_text(l) for l in self.labels)
        return f"{words}  [{labels}]"

    def _label_text(self, label: Label) -> str:
        j, x = label
        return f"<{j},{'0' if x == ZERO else self.poset.names[x]}>"


class MsiDecomposition(NamedTuple):
    """MSIs, disjointified J-intervals, and criticality data of one chain."""

    chain: LabeledChain
    msis: tuple[IndexInterval, ...]
    j_intervals: tuple[IndexInterval, ...]
    is_critical: bool
    critical_dimension: int

    def sign(self) -> int:
        return -1 if self.critical_dimension % 2 else 1


def j_construction(
    msis: Sequence[IndexInterval], open_lo: int, open_hi: int
) -> tuple[tuple[IndexInterval, ...], bool]:
    """Disjointify MSIs into J-intervals; report whether they cover the open chain.

    Minimal intervals sorted by left end have increasing right ends, so one
    pass does the clip-and-minimise loop: after a J ending at r, the next MSI
    still in play is the next J, clipped to start at r + 1, and every later
    MSI starting at or before r + 1 drops out (clipped, it would contain J).
    """
    js: list[IndexInterval] = []
    drop = clip = -1  # below every index
    for lo, hi in sorted(set(msis)):
        if lo > drop:
            js.append((max(lo, clip), hi))
            drop, clip = clip, hi + 1
    covered = sum(hi - lo + 1 for lo, hi in js)
    return tuple(js), covered == len(range(open_lo, open_hi + 1))


class MorseEngine:
    """Chain labeling, PLO and critical-chain machinery for one ground poset."""

    def __init__(self, poset: FinitePoset):
        self.poset = poset
        # label of each id, with label(ZERO) = 0 last so that index ZERO = -1 reads it
        self._label = poset.labels + (0,)
        self._move_cache: dict[Embedding, tuple[Move, ...]] = {}

    # -- labels and the PLO ---------------------------------------------------

    def label_key(self, label: Label) -> tuple[int, int]:
        j, x = label
        return (j, self._label[x])

    # -- cover moves ----------------------------------------------------------

    def cover_moves(self, eta: Embedding) -> tuple[Move, ...]:
        """All covers of the word carried by eta, as canonically labeled moves
        (label key, label, word): the word is the cover :func:`lower_covers`
        builds.  The move's embedding, eta with slot p of its label (p, y) set
        to y, is built only where a walk enters the move.

        A deletion zeroes the first position of its run (the rightmost
        embedding of the shorter word).  Moves are sorted by label key, so DFS
        emits chains in PLO order; the keys are distinct, as a slot is
        deleted only when its letter covers nothing.
        """
        moves = self._move_cache.get(eta)
        if moves is None:
            label = self._label
            moves = self._move_cache[eta] = tuple(sorted(
                ((j + 1, label[y]), (j + 1, y), word)
                for j, y, word in lower_covers(self.poset, eta)
            ))
        return moves

    # -- the strictly decreasing walk -----------------------------------------

    def _moves_below(
        self, eta: Embedding, last: tuple[int, int], reaches: Callable | None
    ) -> Iterator[Move]:
        """The cached moves from eta whose stored label key is below last;
        with reaches given (the walk to u), only the moves that pass it."""
        for move in self.cover_moves(eta):
            if move[0] >= last:
                return  # the moves come sorted by label key
            if reaches is None or reaches(move[1], move[2]):
                yield move

    def _reaches(self, w: Word, u: Word) -> Callable[[Label, Word], bool]:
        """The exact test of the walk from w to u: whether a strictly
        decreasing chain leads on to u from the move labeled (p, x), which
        set slot p to x and gave word.

        Later moves have smaller keys, so they leave the slots after p alone and
        find w's letters before p; a slot may be lowered along covers of P, and
        deleted once its letter is minimal if that differs from w's letter on
        its left.  So u is reachable iff the slots after p spell u[k:] and those
        up to p give u[:k], each keeping a letter >= its letter of u or deleted;
        bit i of prefix[j] says w's first j slots can give u[:i].
        """
        above, below, n = self.poset.above, self.poset.covers_below, self.poset.n
        # per letter, ZERO last (a deleted slot): the letters of u it can keep,
        # and the sole minimal letter below it, None if there are several
        match = [sum(1 << i for i, c in enumerate(u) if x in above[c]) for x in range(n)] + [0]
        mins = [[m for m in range(n) if not below[m] and x in above[m]] for x in range(n)]
        sole = [ms[0] if len(ms) == 1 else None for ms in mins] + [None]
        lefts = (ZERO,) + w  # lefts[j]: the letter left of slot j + 1

        prefix = [1]
        for x, left in zip(w, lefts):  # one slot more: it keeps x, or is deleted
            mask = prefix[-1]
            prefix.append((mask & match[x]) << 1 | (mask if sole[x] != left else 0))

        def reaches(label: Label, word: Word) -> bool:
            p, x = label
            mask = prefix[p - 1]  # the same step, for slot p holding x
            h = p - (x == ZERO)  # the nonzero slots up to p
            k = len(u) - len(word) + h
            mask = (mask & match[x]) << 1 | (mask if sole[x] != lefts[p - 1] else 0)
            return k >= 0 and mask >> k & 1 == 1 and word[h:] == u[k:]

        return reaches

    def walk(
        self, w: Word, u: Word | None = None, max_chains: int = DEFAULT_MAX_CHAINS
    ) -> Iterator[tuple[LabeledChain, list[int]]]:
        """The strictly decreasing chains from w in PLO order, each with its
        MSI scan, carried from its parent prefix (:meth:`_carry_msi_scan`).

        With u None every proper prefix is yielded; with u given, every chain
        down to u, and the walk enters only moves from which u is reachable
        (:meth:`_reaches`).  The chain yielded is one live view of the walk's
        stacks (lists, not tuples): read it before the walk resumes.  More
        than max_chains yields is a :class:`ResourceLimitError`.
        """
        path = LabeledChain(self.poset, [w], [tuple(w)], [])
        _, words, etas, labels = path
        scans: list[list[int]] = [[]]  # scans[n - 1]: the scan of the n-word prefix
        reaches = None if u is None else self._reaches(w, u)
        stack: list[Iterator] = []  # per path word: its moves left
        key, count = (len(w) + 1, 0), 0
        while True:
            at_u = words[-1] == u
            if at_u or u is None and len(words) > 1:
                count += 1
                if count > max_chains:
                    raise ResourceLimitError(
                        f"interval has more than {max_chains} strictly decreasing chains"
                    )
                for hi in range(len(scans) - 1, len(words) - 1):
                    scans.append(self._carry_msi_scan(path, scans[-1], hi) if hi else [])
                yield path, scans[-1]
            stack.append(iter(()) if at_u else self._moves_below(etas[-1], key, reaches))
            while (move := next(stack[-1], None)) is None:
                stack.pop()
                if not stack:
                    return
                del etas[-1], words[-1], labels[-1]
                del scans[len(words) :]
            key, label, word = move
            p, eta = label[0], etas[-1]
            etas.append(eta[: p - 1] + (label[1],) + eta[p:])
            words.append(word)
            labels.append(label)

    # -- skipped intervals: first divergence from C ----------------------------

    def is_si(self, chain: LabeledChain, interval: IndexInterval) -> bool:
        """Exact SI test: some chain through C - I precedes C in the PLO.

        Every chain through C - I takes C's cover steps down to words[i-1].
        From there the PLO-minimum one takes, at each step, the first move
        that stays above words[j+1]; C's own move always does, so it leaves C
        only for a smaller label, and below words[j+1] it is forced again.
        So the test reads only C's first j + 2 words.
        """
        i, j = interval
        lo, hi = chain.open_range()
        if not (lo <= i <= j <= hi):
            raise DomainError("interval must lie in the open chain")
        target = chain.words[j + 1]
        for k in range(i - 1, j + 1):
            own = chain.labels[k]
            for _, label, word in self.cover_moves(chain.embeddings[k]):
                if label == own:
                    break
                if trusted_leq(self.poset, target, word):
                    return True
        return False

    def _carry_msi_scan(self, chain: LabeledChain, ends: list[int], hi: int) -> list[int]:
        """One step of the MSI scan: from C's prefix through words[hi] to the
        one through words[hi + 1].  ends[i - 1] is the least skipped end f(i)
        on the shorter prefix, or hi if there is none yet.  Only the open i
        are tested, a suffix as f never decreases; SIs stay skipped when
        enlarged to the left, so (i, hi) is skipped on a prefix of that suffix.
        """
        out = ends + [hi]
        i = hi
        while i > 1 and out[i - 2] == hi:
            i -= 1
        while i <= hi and self.is_si(chain, (i, hi)):
            i += 1
        out[i - 1 :] = [hi + 1] * (hi + 1 - i)
        return out

    def decomposition_direct(
        self, chain: LabeledChain, ends: list[int] | None = None
    ) -> MsiDecomposition:
        """The decomposition read off chain's carried MSI scan ``ends``.

        With None, the scan is folded here over each prefix of chain in turn.
        Each step tests the new end once for every i it closes and once more
        where it stops, so the fold takes O(L) SI tests.
        """
        if ends is None:
            ends = []
            for hi in range(1, len(chain.words) - 1):
                ends = self._carry_msi_scan(chain, ends, hi)
        msis, js, sign = _read_scan(tuple(ends))
        return MsiDecomposition(chain, msis, js, sign != 0, len(js) - 1)

    # -- critical chains and the Morse Mobius sum -----------------------------

    def critical_chains(
        self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS
    ) -> Iterator[MsiDecomposition]:
        """The critical chains of [u, w] in PLO order, generated as the walk
        finds them; none where u is not <= w, as no chain of the walk reaches u.

        Only the chains of the strictly decreasing walk are examined; no
        other chain can be critical, and more than max_chains of them is a
        :class:`ResourceLimitError`, raised when the walk gets that far.
        """
        u, w = check_word(self.poset, u), check_word(self.poset, w)
        if u == w:
            return
        for path, scan in self.walk(w, u, max_chains):
            if _read_scan(tuple(scan))[2]:  # copy the live path only when critical
                _, words, etas, labels = path
                chain = LabeledChain(self.poset, tuple(words), tuple(etas), tuple(labels))
                yield self.decomposition_direct(chain, scan)

    def _signs(self, w: Word, u: Word | None, max_chains: int) -> dict[Embedding, int]:
        """Sum (-1)^d over the critical chains of ``walk(w, u)`` by final
        embedding, in walk order, reading each sign off the carried scan."""
        table: dict[Embedding, int] = {}
        for path, scan in self.walk(w, u, max_chains):
            sign = _read_scan(tuple(scan))[2]
            if sign:
                eta = path.final_embedding
                table[eta] = table.get(eta, 0) + sign
        return table

    def mobius_morse(self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS) -> int:
        """The Morse sum of :meth:`embedding_mus`: 0 where u is not <= w."""
        return check_i64(sum(self.embedding_mus(u, w, max_chains).values()), "mobius_morse")

    def mobius_morse_below(
        self, w: Word, words: Iterable[Word], max_chains: int = DEFAULT_MAX_CHAINS
    ) -> dict[Word, int]:
        """mu(u, w) for every u <= w via the Morse sum over one walk of w.

        ``words`` lists [empty, w] (the verification sweep passes its
        diagram's nodes), and a word no critical chain ends at gets mu 0.
        More than max_chains walked prefixes is a :class:`ResourceLimitError`.
        """
        w = check_word(self.poset, w)
        table: dict[Word, int] = {}
        for eta, sign in self._signs(w, None, max_chains).items():
            u = restrict(eta)
            table[u] = check_i64(table.get(u, 0) + sign, "mobius_morse_below")
        for u in words:
            table.setdefault(u, 0)
        table[w] = 1
        return table

    def embedding_mus(
        self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS
    ) -> dict[Embedding, int]:
        """Morse contribution of each final embedding of [u, w]'s critical
        chains, from one walk; an embedding no critical chain ends at is
        absent, so the table is empty where u is not <= w: no chain reaches u."""
        u, w = check_word(self.poset, u), check_word(self.poset, w)
        return {w: 1} if u == w else self._signs(w, u, max_chains)


@lru_cache(maxsize=4096)
def _read_scan(
    ends: tuple[int, ...],
) -> tuple[tuple[IndexInterval, ...], tuple[IndexInterval, ...], int]:
    """The MSIs, J-intervals and sign of a chain whose carried scan is ends:
    the sign is (-1)^d when the chain is critical of dimension d, else 0.

    The MSIs are the (i, f(i)) with f(i) < f(i + 1), where f(hi + 1) = hi + 1
    bounds the open i.  The scan alone decides all three, so they are
    memoized, and chains with equal scans share the tuples.
    """
    after = ends[1:] + (len(ends) + 1,)
    msis = tuple((i, f) for i, (f, g) in enumerate(zip(ends, after), 1) if f < g)
    js, critical = j_construction(msis, 1, len(ends))
    return msis, js, (1 if len(js) % 2 else -1) if critical else 0
