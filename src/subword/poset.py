"""Finite posets, the bottom-adjoined poset, natural labelings and Mobius values.

Elements of a :class:`FinitePoset` are dense integer ids ``0..n-1``; display
names are metadata only.  The adjoined bottom of P0 (P with a bottom adjoined)
is the sentinel id :data:`ZERO` (= -1), so word letters and bottom never
collide.

A :class:`FinitePoset` owns the tables every route reads: ``above`` (up-sets),
``covers_below`` (lower covers) and a memo of the Mobius function of P0,
filled on demand by :meth:`FinitePoset.mu0` and shared by every caller.  These
and :meth:`FinitePoset.interval0` take ids unchecked, so inner loops read them
only after a public entry has validated its input; :class:`AugmentedPoset` is
the validating view of P0 over the same tables.
"""

from __future__ import annotations

import heapq
import json
import random
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, InputError, check_i64

# Id of the adjoined bottom element of an AugmentedPoset.
ZERO = -1


class FinitePoset:
    """An immutable finite poset given by its cover relation.

    The cover digraph must be acyclic and transitively reduced; both are
    validated at construction rather than silently repaired.

    ``above[a]`` (the elements b with a <= b) and ``covers_below[b]`` (the
    elements covered by b, in id order) are precomputed for inner loops that
    index them with ids already checked by :meth:`check_element`.
    """

    def __init__(self, names: Sequence[str], covers: Iterable[tuple[int, int]]):
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate element names")
        self.n = len(self.names)
        cov = set()
        for a, b in covers:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InputError(f"cover ({a},{b}) uses an unknown element id")
            if a == b:
                raise InputError(f"cover ({a},{a}) is a self-loop")
            cov.add((int(a), int(b)))
        self.covers = frozenset(cov)
        self._upper = [set() for _ in range(self.n)]  # a -> elements covering a
        self._lower = [set() for _ in range(self.n)]  # b -> elements covered by b
        for a, b in cov:
            self._upper[a].add(b)
            self._lower[b].add(a)
        self.above = self._reachability()
        self.covers_below = tuple(tuple(sorted(s)) for s in self._lower)
        self._validate_reduced()
        self._name_to_id = {nm: i for i, nm in enumerate(self.names)}
        self._mu0: dict[tuple[int, int], int] = {}

    # -- construction helpers -------------------------------------------------

    def _reachability(self) -> tuple[frozenset[int], ...]:
        """up[a] = {b : a <= b}; raises on a cycle."""
        order = self._topo_order()
        up: list[set[int]] = [set() for _ in range(self.n)]
        for a in reversed(order):
            s = {a}
            for b in self._upper[a]:
                s |= up[b]
            up[a] = s
        return tuple(frozenset(s) for s in up)

    def _topo_order(self) -> list[int]:
        """Linear extension taking the smallest available id first."""
        indeg = [len(self._lower[i]) for i in range(self.n)]
        heap = [i for i in range(self.n) if indeg[i] == 0]
        order: list[int] = []
        while heap:
            a = heapq.heappop(heap)
            order.append(a)
            for b in self._upper[a]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(heap, b)
        if len(order) != self.n:
            raise InputError("cover relation contains a cycle")
        return order

    def _validate_reduced(self) -> None:
        for a, b in self.covers:
            for c in self._upper[a]:
                if c != b and b in self.above[c]:
                    raise InputError(
                        f"cover ({self.names[a]},{self.names[b]}) is implied by a "
                        "longer path; cover set is not transitively reduced"
                    )

    # -- queries --------------------------------------------------------------

    def check_element(self, x: int) -> int:
        if not 0 <= x < self.n:
            raise InputError(f"unknown element id {x}")
        return x

    def leq(self, a: int, b: int) -> bool:
        self.check_element(a)
        self.check_element(b)
        return b in self.above[a]

    def interval0(self, a: int, b: int) -> list[int]:
        """[a, b] in P0 for unchecked ids, either may be ZERO; ZERO first,
        then ids in order.  Empty unless a <= b."""
        above = self.above
        inside = [
            z for z in range(self.n)
            if b != ZERO and b in above[z] and (a == ZERO or z in above[a])
        ]
        return [ZERO] + inside if a == ZERO else inside

    def mu0(self, a: int, b: int) -> int:
        """Mobius function of P0 for unchecked ids a <= b, by the classical
        recursion mu(a,a)=1, mu(a,b) = -sum_{a<=z<b} mu(a,z), memoized."""
        if a == b:
            return 1
        key = (a, b)
        if key not in self._mu0:
            total = sum(self.mu0(a, z) for z in self.interval0(a, b) if z != b)
            self._mu0[key] = check_i64(-total, f"mobius0({a},{b})")
        return self._mu0[key]

    def covers_of(self, a: int) -> list[int]:
        """Elements covering a, in id order."""
        return sorted(self._upper[self.check_element(a)])

    def covered_by(self, b: int) -> list[int]:
        """Elements covered by b, in id order."""
        return list(self.covers_below[self.check_element(b)])

    def minimals(self) -> list[int]:
        return [x for x in range(self.n) if not self._lower[x]]

    def maximals(self) -> list[int]:
        return [x for x in range(self.n) if not self._upper[x]]

    def is_antichain(self) -> bool:
        return not self.covers

    def is_rooted_forest(self) -> bool:
        """True iff every non-minimal element covers exactly one element.

        Equivalently, in the augmented poset every nonzero element covers
        exactly one element.
        """
        return all(len(self._lower[x]) <= 1 for x in range(self.n))

    def rank_element(self, x: int) -> int:
        """Length of a longest chain from a minimal element up to x."""
        self.check_element(x)
        return self._ranks()[x]

    def rank_poset(self) -> int:
        return max(self._ranks(), default=0)

    def _ranks(self) -> list[int]:
        if not hasattr(self, "_rank_cache"):
            ranks = [0] * self.n
            for x in self._topo_order():
                ranks[x] = max((ranks[a] + 1 for a in self._lower[x]), default=0)
            self._rank_cache = ranks
        return self._rank_cache

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise InputError(f"unknown element name {name!r}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePoset)
            and self.names == other.names
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.names, self.covers))

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n}, covers={sorted(self.covers)})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "elements": list(self.names),
                "covers": sorted(
                    [self.names[a], self.names[b]] for a, b in self.covers
                ),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        try:
            data = json.loads(text)
            names = [str(x) for x in data["elements"]]
            ids = {nm: i for i, nm in enumerate(names)}
            covers = [(ids[str(a)], ids[str(b)]) for a, b in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad poset JSON: {exc}") from exc
        return cls(names, covers)


class AugmentedPoset:
    """The poset P with a bottom element (id ZERO) adjoined."""

    def __init__(self, base: FinitePoset):
        self.base = base
        self.zero = ZERO

    def check_element(self, x: int) -> int:
        if x == ZERO:
            return x
        return self.base.check_element(x)

    def leq(self, a: int, b: int) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a == ZERO or (b != ZERO and b in self.base.above[a])

    def elements(self) -> list[int]:
        return [ZERO] + list(range(self.base.n))

    def covered_by(self, b: int) -> list[int]:
        """Elements covered by b in the augmented order; ZERO is covered by none."""
        if b == ZERO:
            return []
        lower = self.base.covered_by(b)
        return lower if lower else [ZERO]

    def covers_of(self, a: int) -> list[int]:
        if a == ZERO:
            return self.base.minimals()
        return self.base.covers_of(a)

    def interval(self, a: int, b: int) -> list[int]:
        """Elements of [a, b], unordered domain check included."""
        if not self.leq(a, b):
            raise DomainError(f"{a} is not <= {b} in the augmented poset")
        return self.base.interval0(a, b)

    def mobius0(self, a: int, b: int) -> int:
        """mu(a, b) in P0, read from the base poset's shared memo."""
        if not self.leq(a, b):
            raise DomainError(f"mobius0 requires a <= b; got {a}, {b}")
        return self.base.mu0(a, b)

    def maximal_chains(self, a: int, b: int) -> list[tuple[int, ...]]:
        """All maximal chains of [a,b], each listed top-to-bottom (b first)."""
        if not self.leq(a, b):
            raise DomainError(f"{a} is not <= {b} in the augmented poset")
        out: list[tuple[int, ...]] = []

        def descend(x: int, acc: list[int]) -> None:
            if x == a:
                out.append(tuple(acc))
                return
            for y in self.covered_by(x):
                if self.leq(a, y):
                    acc.append(y)
                    descend(y, acc)
                    acc.pop()

        descend(b, [b])
        return out


class NaturalLabeling:
    """An order-preserving injection of P into 1..n, with label(ZERO)=0."""

    def __init__(self, poset: FinitePoset, order: Sequence[int] | None = None):
        order = list(poset._topo_order() if order is None else order)
        if sorted(order) != list(range(poset.n)):
            raise InputError("labeling order must be a permutation of element ids")
        labels = [0] * poset.n
        for pos, x in enumerate(order):
            labels[x] = pos + 1
        for a, b in poset.covers:
            if labels[a] >= labels[b]:
                raise InputError("labeling order is not a linear extension")
        self.poset = poset
        self._labels = labels

    def __call__(self, x: int) -> int:
        if x == ZERO:
            return 0
        return self._labels[self.poset.check_element(x)]


def natural_labeling(poset: FinitePoset) -> NaturalLabeling:
    return NaturalLabeling(poset)


def all_linear_extensions(poset: FinitePoset) -> Iterator[list[int]]:
    """All linear extensions; intended for small posets in property tests."""

    def extend(acc: list[int], remaining: set[int]) -> Iterator[list[int]]:
        if not remaining:
            yield list(acc)
            return
        for x in sorted(remaining):
            if all(a in acc for a in poset.covered_by(x)):
                acc.append(x)
                yield from extend(acc, remaining - {x})
                acc.pop()

    yield from extend([], set(range(poset.n)))


def mobius_hat_chain_count(
    elements: Sequence, leq: Callable[[object, object], bool]
) -> int:
    """mu of the poset with hat-bottom and hat-top adjoined, via chain counts.

    Uses the alternating chain-count expression -1 + c0 - c1 + c2 - ..., where
    c_i counts chains with i+1 elements, evaluated by dynamic programming.
    """
    elems = list(elements)
    # h[x] = signed count, over chains with top x, of (-1)^(#elements - 1).
    order = sorted(range(len(elems)), key=lambda i: sum(leq(elems[j], elems[i]) for j in range(len(elems))))
    h: dict[int, int] = {}
    for i in order:
        below = [j for j in order if j != i and leq(elems[j], elems[i])]
        h[i] = 1 - sum(h[j] for j in below)
    return check_i64(-1 + sum(h.values()), "mobius_hat_chain_count")


# -- built-in posets ----------------------------------------------------------


def _chain(n: int) -> FinitePoset:
    return FinitePoset([str(i + 1) for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def _antichain(n: int) -> FinitePoset:
    return FinitePoset([str(i + 1) for i in range(n)], [])


def _lambda_s(s: int) -> FinitePoset:
    """An s-element antichain with a top element added; s=2 is the poset Lambda."""
    names = [str(i + 1) for i in range(s)] + [str(s + 1)]
    return FinitePoset(names, [(i, s) for i in range(s)])


def _fig3() -> FinitePoset:
    names = [str(i + 1) for i in range(9)]
    covers_by_name = [
        ("1", "5"), ("1", "6"), ("2", "6"), ("2", "7"), ("3", "8"),
        ("4", "8"), ("5", "9"), ("6", "9"), ("7", "9"), ("8", "9"),
    ]
    ids = {nm: i for i, nm in enumerate(names)}
    return FinitePoset(names, [(ids[a], ids[b]) for a, b in covers_by_name])


def random_poset(seed: int, max_elements: int = 5) -> FinitePoset:
    """A small random poset, deterministic per seed.

    A random DAG on ids 0..n-1 (edges only from lower to higher id) is
    transitively reduced before construction.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_elements)
    reach = [{i} for i in range(n)]
    edges: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                edges.add((a, b))
    for a in range(n - 1, -1, -1):
        for b in range(a + 1, n):
            if (a, b) in edges:
                reach[a] |= reach[b]
    covers = [
        (a, b)
        for a, b in edges
        if not any(c != b and b in reach[c] for c in range(a + 1, n) if (a, c) in edges)
    ]
    return FinitePoset([str(i + 1) for i in range(n)], covers)


@lru_cache(maxsize=None)
def builtin_poset(name: str) -> FinitePoset:
    """Resolve chain:n, antichain:n, lambda, lambda:s, fig3."""
    head, _, arg = name.partition(":")
    try:
        if head == "chain":
            return _chain(int(arg))
        if head == "antichain":
            return _antichain(int(arg))
        if head == "lambda":
            return _lambda_s(int(arg) if arg else 2)
        if head == "fig3" and not arg:
            return _fig3()
    except ValueError as exc:
        raise InputError(f"bad poset name {name!r}: {exc}") from exc
    raise InputError(f"unknown built-in poset {name!r}")


def load_poset(source: str) -> FinitePoset:
    """Resolve a built-in name or a JSON file path."""
    try:
        return builtin_poset(source)
    except InputError:
        pass
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return FinitePoset.from_json(fh.read())
    except OSError as exc:
        raise InputError(
            f"poset source {source!r} is neither a built-in name nor a readable file"
        ) from exc
