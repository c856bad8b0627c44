"""Discrete Morse theory on intervals of generalized subword order.

Maximal chains are labeled by (position, letter) moves under the
rightmost-zeroing convention, totally ordered lexicographically (a PLO), and
analyzed for skipped intervals, MSIs, J-intervals and criticality.  The Morse
route to the Mobius function sums (-1)^d over critical chains.

A skipped interval (SI) is decided by an exact direct test
(:meth:`MorseEngine.is_si`): an interval I of C is skipped iff the
PLO-minimum maximal chain through C - I precedes C.  That chain is never
later than C, so the test is decided where it first leaves C, and it looks
only at C's own steps across I.  Combined with generating only chains whose
label sequences strictly decrease (no other chain can be critical), this
keeps large sweeps feasible.  The brute-force reference, which quantifies
over all PLO-earlier chains, lives with the verification suites (module
``verify``).

The walk to a bottom u keeps only prefixes that can still reach u.  Labels
strictly decrease, so after a move at position p the slots after p never
change again: a move is kept only if the word on those frozen slots is a
suffix of u and the rest of u lies below the word on slots 1..p.  This
implies u <= v for the new word v, the only test of the unrestricted walk,
and cuts the dead ends that made the walk grow far faster than its chains.

The direct test of (i, j) reads only C's first j + 2 words, so the MSI scan
is carried along a chain one step at a time: a step tests the new last index
only for the starts i not yet closed, and :meth:`MorseEngine.msis_direct` is
the fold of that step.  :meth:`MorseEngine.mobius_morse_below` carries it
along the walk from parent prefix to child, and
:meth:`MorseEngine.critical_chains` keeps the scans of the labels a chain
shares with the one before it and carries only the rest.  The J-intervals
then come from one left-to-right pass over the MSIs (:func:`j_construction`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, InputError, ResourceLimitError, check_i64
from .poset import ZERO, FinitePoset
from .words import (
    DEFAULT_MAX_CHAINS,
    DEFAULT_MAX_NODES,
    Embedding,
    Word,
    check_word,
    format_word,
    is_embedding,
    lower_covers,
    restrict,
    trusted_leq,
)

Label = tuple[int, int]  # (1-based position in w, letter id or ZERO)
IndexInterval = tuple[int, int]  # inclusive indices into a chain's word list


class NaturalLabeling:
    """An order-preserving injection of P into 1..n, with label(ZERO)=0.

    By default it is the poset's own ``labels``; an explicit order is checked.
    """

    def __init__(self, poset: FinitePoset, order: Sequence[int] | None = None):
        self.poset = poset
        self.labels = poset.labels  # label of each id, read unchecked by inner loops
        if order is None:
            return
        order = list(order)
        if sorted(order) != list(range(poset.n)):
            raise InputError("labeling order must be a permutation of element ids")
        labels = [0] * poset.n
        for pos, x in enumerate(order):
            labels[x] = pos + 1
        for a, b in poset.covers:
            if labels[a] >= labels[b]:
                raise InputError("labeling order is not a linear extension")
        self.labels = tuple(labels)

    def __call__(self, x: int) -> int:
        if x == ZERO:
            return 0
        return self.labels[self.poset.check_element(x)]


def natural_labeling(poset: FinitePoset) -> NaturalLabeling:
    return NaturalLabeling(poset)


class LabeledChain(NamedTuple):
    """A maximal chain of [u, w] with its embedding track and label sequence."""

    poset: FinitePoset
    words: tuple[Word, ...]  # top w first, bottom u last
    embeddings: tuple[Embedding, ...]
    labels: tuple[Label, ...]

    @property
    def top(self) -> Word:
        return self.words[0]

    @property
    def bottom(self) -> Word:
        return self.words[-1]

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


def decompose(chain: LabeledChain, msis: Sequence[IndexInterval]) -> MsiDecomposition:
    """The decomposition of chain with the given MSIs."""
    lo, hi = chain.open_range()
    js, crit = j_construction(msis, lo, hi)
    return MsiDecomposition(chain, tuple(sorted(msis)), js, crit, len(js) - 1)


class MorseEngine:
    """Chain labeling, PLO and critical-chain machinery for one ground poset."""

    def __init__(self, poset: FinitePoset, labeling: NaturalLabeling | None = None):
        self.poset = poset
        self.labeling = labeling if labeling is not None else natural_labeling(poset)
        # label of each id, with label(ZERO) = 0 last so that index ZERO = -1 reads it
        self._label = self.labeling.labels + (0,)
        self._move_cache: dict[Embedding, tuple[tuple[Label, Embedding], ...]] = {}

    # -- labels and the PLO ---------------------------------------------------

    def label_key(self, label: Label) -> tuple[int, int]:
        j, x = label
        return (j, self._label[x])

    def plo_key(self, chain: LabeledChain) -> tuple[tuple[int, int], ...]:
        return tuple(self.label_key(l) for l in chain.labels)

    def plo_compare(self, c1: LabeledChain, c2: LabeledChain) -> int:
        if (c1.top, c1.bottom) != (c2.top, c2.bottom):
            raise DomainError("plo_compare requires chains of the same interval")
        k1, k2 = self.plo_key(c1), self.plo_key(c2)
        return -1 if k1 < k2 else (1 if k1 > k2 else 0)

    # -- cover moves ----------------------------------------------------------

    def cover_moves(self, eta: Embedding) -> tuple[tuple[Label, Embedding], ...]:
        """All covers of the word carried by eta, as canonically labeled moves.

        The moves are those of :func:`lower_covers`; a deletion zeroes the
        first position of its run (the rightmost embedding of the shorter
        word).  Moves are sorted by label key, so DFS emits chains in PLO order.
        """
        cached = self._move_cache.get(eta)
        if cached is not None:
            return cached
        moves = [
            ((j + 1, y), eta[:j] + (y,) + eta[j + 1 :])
            for j, y in lower_covers(self.poset, eta)
        ]
        moves.sort(key=lambda m: self.label_key(m[0]))
        result = tuple(moves)
        self._move_cache[eta] = result
        return result

    def label_chain(self, words: Sequence[Word]) -> LabeledChain:
        """Label a maximal chain (given top-to-bottom as words)."""
        words = [check_word(self.poset, v) for v in words]
        if not words:
            raise DomainError("a chain needs at least one element")
        etas: list[Embedding] = [tuple(words[0])]
        labels: list[Label] = []
        for v in words[1:]:
            for label, eta in self.cover_moves(etas[-1]):
                if restrict(eta) == v:
                    etas.append(eta)
                    labels.append(label)
                    break
            else:
                raise DomainError(
                    f"{format_word(self.poset, v)} is not covered by "
                    f"{format_word(self.poset, restrict(etas[-1]))}"
                )
        return LabeledChain(self.poset, tuple(words), tuple(etas), tuple(labels))

    def chain_specified_by(self, w: Word, labels: Sequence[Label]) -> LabeledChain:
        """Apply labels as embedding moves from w, then re-derive canonical labels."""
        w = check_word(self.poset, w)
        eta = list(w)
        words = [w]
        for j, x in labels:
            if not 1 <= j <= len(w):
                raise DomainError(f"label position {j} outside 1..{len(w)}")
            cur = eta[j - 1]
            if cur == ZERO or x not in (self.poset.covers_below[cur] or (ZERO,)):
                raise DomainError(f"label <{j},{x}> is not applicable at its step")
            eta[j - 1] = x
            words.append(restrict(tuple(eta)))
        return self.label_chain(words)

    # -- chain enumeration ----------------------------------------------------

    def chains(
        self, w: Word, u: Word | None, decreasing: bool
    ) -> Iterator[LabeledChain]:
        """Saturated descending chains from w, in PLO order; with decreasing,
        only those whose labels strictly decrease.

        With u given, only full chains down to u are yielded; with u None every
        proper descending prefix is yielded (its endpoint is the chain bottom).
        With u given and decreasing, a move is kept only if its frozen tail
        still lets the walk reach u (see :meth:`_can_reach`).
        """
        etas: list[Embedding] = [tuple(w)]
        words: list[Word] = [w]
        labels: list[Label] = []

        def emit() -> LabeledChain:
            return LabeledChain(self.poset, tuple(words), tuple(etas), tuple(labels))

        def descend() -> Iterator[LabeledChain]:
            if u is None and len(words) > 1:
                yield emit()
            elif u is not None and words[-1] == u:
                yield emit()
                return
            last = self.label_key(labels[-1]) if decreasing and labels else None
            for label, eta in self.cover_moves(etas[-1]):
                if last is not None and self.label_key(label) >= last:
                    break  # the moves come sorted by label key
                v = restrict(eta)
                if u is not None and not (
                    self._can_reach(u, eta, label[0])
                    if decreasing
                    else trusted_leq(self.poset, u, v)
                ):
                    continue
                etas.append(eta)
                words.append(v)
                labels.append(label)
                yield from descend()
                etas.pop()
                words.pop()
                labels.pop()

        yield from descend()

    def _can_reach(self, u: Word, eta: Embedding, p: int) -> bool:
        """Whether a strictly decreasing walk on from eta, after a move at
        position p, can end at u: every later move is at p or before, so the
        slots after p are u's tail and u's head lies below the slots up to p."""
        tail = restrict(eta[p:])
        k = len(u) - len(tail)
        return k >= 0 and u[k:] == tail and trusted_leq(self.poset, u[:k], restrict(eta[:p]))

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
            for label, eta in self.cover_moves(chain.embeddings[k]):
                if label == own:
                    break
                if trusted_leq(self.poset, target, restrict(eta)):
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

    def msis_direct(self, chain: LabeledChain) -> list[IndexInterval]:
        """MSIs of chain: the carried scan folded over its prefixes.

        Each step tests the new end once for every i it closes and once more
        where it stops, so the fold takes O(L) SI tests.
        """
        ends: list[int] = []
        for hi in range(1, len(chain.words) - 1):
            ends = self._carry_msi_scan(chain, ends, hi)
        return _msis_of_scan(ends)

    def decomposition_direct(
        self, chain: LabeledChain, ends: list[int] | None = None
    ) -> MsiDecomposition:
        """The decomposition from chain's carried MSI scan ``ends``; with
        None, the scan is folded here (:meth:`msis_direct`)."""
        msis = self.msis_direct(chain) if ends is None else _msis_of_scan(ends)
        return decompose(chain, msis)

    # -- critical chains and the Morse Mobius sum -----------------------------

    def critical_chains(
        self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS
    ) -> list[MsiDecomposition]:
        """All critical chains of [u, w], PLO-sorted.

        Only chains with strictly decreasing label sequences are examined;
        no other chain can be critical, and more than max_chains of them is a
        :class:`ResourceLimitError`.  The walker takes moves in label-key
        order, so the chains already come out in PLO order.  A chain keeps
        the MSI scans of the labels it shares with the chain before it.
        """
        u = check_word(self.poset, u)
        w = check_word(self.poset, w)
        if not trusted_leq(self.poset, u, w):
            raise DomainError("critical_chains requires u <= w")
        if u == w:
            return []
        out: list[MsiDecomposition] = []
        scans: list[list[int]] = [[]]  # scans[hi]: the scan through words[hi + 1]
        labels: tuple[Label, ...] = ()
        for n, chain in enumerate(self.chains(w, u, decreasing=True)):
            if n == max_chains:
                raise ResourceLimitError(
                    f"interval has more than {max_chains} strictly decreasing chains"
                )
            shared = next(
                (k for k, (a, b) in enumerate(zip(labels, chain.labels)) if a != b), 0
            )
            del scans[max(shared, 1) :]  # scans[hi] reads labels[: hi + 1]
            for hi in range(len(scans), len(chain.words) - 1):
                scans.append(self._carry_msi_scan(chain, scans[-1], hi))
            labels = chain.labels
            dec = self.decomposition_direct(chain, scans[-1])
            if dec.is_critical:
                out.append(dec)
        return out

    def mobius_morse(self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS) -> int:
        u = check_word(self.poset, u)
        w = check_word(self.poset, w)
        if u == w:
            return 1
        if not trusted_leq(self.poset, u, w):
            raise DomainError("mobius_morse requires u <= w")
        total = sum(dec.sign() for dec in self.critical_chains(u, w, max_chains))
        return check_i64(total, "mobius_morse")

    def mobius_morse_below(
        self,
        w: Word,
        words: Iterable[Word] | None = None,
        max_chains: int = DEFAULT_MAX_CHAINS,
        max_nodes: int = DEFAULT_MAX_NODES,
    ) -> dict[Word, int]:
        """mu(u, w) for every u <= w via the Morse sum, one traversal of w;
        each prefix's MSI scan is its parent's, carried one step.

        ``words`` lists [empty, w], and a word no critical chain ends at gets
        mu 0.  By default it is searched here, and more than max_nodes
        elements is a :class:`ResourceLimitError`; a given list is trusted
        (the verification sweep passes its diagram's nodes, already capped).
        More than max_chains walked prefixes (strictly decreasing chains from
        w) is a :class:`ResourceLimitError` too.
        """
        w = check_word(self.poset, w)
        table: dict[Word, int] = {}
        scans: list[list[int]] = [[]]  # scans[k]: the current prefix with k open positions
        for n, chain in enumerate(self.chains(w, None, decreasing=True)):
            if n == max_chains:
                raise ResourceLimitError(
                    f"interval has more than {max_chains} strictly decreasing chains"
                )
            hi = len(chain.words) - 2
            if hi:
                del scans[hi:]
                scans.append(self._carry_msi_scan(chain, scans[-1], hi))
            sign = _scan_sign(tuple(scans[hi]))
            if sign:
                total = table.get(chain.bottom, 0) + sign
                table[chain.bottom] = check_i64(total, "mobius_morse_below")
        if words is None:
            from .interval import interval_covers

            words = interval_covers(self.poset, (), w, max_nodes)
        for u in words:
            table.setdefault(u, 0)
        table[w] = 1
        return table

    def embedding_mus(
        self, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS
    ) -> dict[Embedding, int]:
        """Morse contribution of each final embedding of [u, w]'s critical
        chains, from one walk; an embedding no critical chain ends at is absent."""
        u = check_word(self.poset, u)
        w = check_word(self.poset, w)
        if u == w:
            return {w: 1}
        out: dict[Embedding, int] = {}
        for dec in self.critical_chains(u, w, max_chains):
            eta = dec.chain.final_embedding
            out[eta] = check_i64(out.get(eta, 0) + dec.sign(), "embedding_mus")
        return out

    def per_embedding_mu(self, eta: Embedding, w: Word) -> int:
        """Morse contribution of the critical chains ending at the embedding eta."""
        w = check_word(self.poset, w)
        if not is_embedding(self.poset, eta, w):
            raise DomainError("eta is not an embedding in w")
        return self.embedding_mus(restrict(eta), w).get(eta, 0)


@lru_cache(maxsize=4096)
def _scan_sign(ends: tuple[int, ...]) -> int:
    """(-1)^d for a chain whose carried scan is ends when it is critical of
    dimension d, else 0; the scan alone decides it, so it is memoized."""
    js, critical = j_construction(_msis_of_scan(list(ends)), 1, len(ends))
    return (1 if len(js) % 2 else -1) if critical else 0


def _msis_of_scan(ends: list[int]) -> list[IndexInterval]:
    """The minimal (i, f(i)) of a carried scan: those with f(i) < f(i + 1),
    where f(hi + 1) = hi + 1 bounds the open i."""
    after = ends[1:] + [len(ends) + 1]
    return [(i, f) for i, (f, g) in enumerate(zip(ends, after), 1) if f < g]
