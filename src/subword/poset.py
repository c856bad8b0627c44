"""Finite posets: construction, the Mobius function of P0 and the built-ins.

Elements of a :class:`FinitePoset` are dense integer ids ``0..n-1``; display
names are metadata only.  The adjoined bottom of P0 (P with a bottom adjoined)
is the sentinel id :data:`ZERO` (= -1), so word letters and bottom never
collide.

A :class:`FinitePoset` owns the tables every route reads: ``above`` (up-sets),
``covers_below`` (lower covers) and a memo of the Mobius function of P0,
filled on demand by :meth:`FinitePoset.mu0` and shared by every caller.  These
and :meth:`FinitePoset.interval0` take ids unchecked, so inner loops read them
only after a public entry has validated its input.

The validating view of P0 (``AugmentedPoset``), seeded random posets and the
other references live with the verification suites (module ``verify``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InputError, check_i64

# Id of the adjoined bottom element of P0.
ZERO = -1


class FinitePoset:
    """An immutable finite poset given by its cover relation.

    The cover digraph must be acyclic and transitively reduced; both are
    validated at construction rather than silently repaired.

    ``above[a]`` (the elements b with a <= b) and ``covers_below[b]`` (the
    elements covered by b, in id order) are precomputed for inner loops that
    index them with ids already checked by :meth:`check_element`, as are
    ``labels[x]`` (the natural label 1..n of x in the linear extension that
    takes the smallest available id first) and ``ranks[x]`` (the length of a
    longest chain from a minimal element up to x).
    """

    def __init__(self, names: Sequence[str], covers: Iterable[tuple[int, int]]):
        self.names = tuple(str(x) for x in names)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate element names")
        for nm in self.names:  # words join names with ","; "", "-" and "∅" spell ()
            if nm in ("", "-", "∅") or "," in nm or nm != nm.strip():
                raise InputError(f"element name {nm!r} cannot be written in a word")
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
        order = self._topo_order()
        self.above = self._reachability(order)
        self.covers_below = tuple(tuple(sorted(s)) for s in self._lower)
        labels = [0] * self.n
        ranks = [0] * self.n
        for pos, x in enumerate(order):
            labels[x] = pos + 1
            ranks[x] = max((ranks[a] + 1 for a in self._lower[x]), default=0)
        self.labels = tuple(labels)
        self.ranks = tuple(ranks)
        self._validate_reduced()
        self._name_to_id = {nm: i for i, nm in enumerate(self.names)}
        self._mu0: dict[tuple[int, int], int] = {}

    # -- construction helpers -------------------------------------------------

    def _reachability(self, order: list[int]) -> tuple[frozenset[int], ...]:
        """up[a] = {b : a <= b}, from a linear extension."""
        up: list[set[int]] = [set() for _ in range(self.n)]
        for a in reversed(order):
            s = {a}
            for b in self._upper[a]:
                s |= up[b]
            up[a] = s
        return tuple(frozenset(s) for s in up)

    def _topo_order(self) -> list[int]:
        """Linear extension taking the smallest available id first.  A scan
        for the least ready id keeps this quadratic, as ``above`` is anyway,
        and keeps ``heapq`` off every call's start-up."""
        indeg = [len(self._lower[i]) for i in range(self.n)]
        ready = {i for i in range(self.n) if indeg[i] == 0}
        order: list[int] = []
        while ready:
            a = min(ready)
            ready.remove(a)
            order.append(a)
            for b in self._upper[a]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.add(b)
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
        recursion mu(a,a)=1, mu(a,b) = -sum_{a<=z<b} mu(a,z), memoized; the
        sum runs in label order, so every term is memoized before it is read."""
        if a == b:
            return 1
        key = (a, b)
        if key not in self._mu0:
            inside = sorted(self.interval0(a, b), key=lambda z: self.labels[z] if z != ZERO else 0)
            total = sum(self.mu0(a, z) for z in inside if z != b)
            self._mu0[key] = check_i64(-total, f"mobius0({a},{b})")
        return self._mu0[key]

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
        import json

        covers = sorted([self.names[a], self.names[b]] for a, b in self.covers)
        return json.dumps({"elements": list(self.names), "covers": covers})

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        import json

        try:
            data = json.loads(text)
            names = [str(x) for x in data["elements"]]
            ids = {nm: i for i, nm in enumerate(names)}
            covers = [(ids[str(a)], ids[str(b)]) for a, b in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad poset JSON: {exc}") from exc
        return cls(names, covers)


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


# Sized built-in families: name -> (constructor, least size); fig3 takes none.
_FAMILIES = {"chain": (_chain, 0), "antichain": (_antichain, 0), "lambda": (_lambda_s, 1)}
DEFAULT_POSET_SPEC = "lambda,lambda:3,fig3,chain:3,antichain:3"


@lru_cache(maxsize=None)
def builtin_poset(name: str) -> FinitePoset:
    """Resolve chain:n, antichain:n (n >= 0), lambda, lambda:s (s >= 1), fig3."""
    head, _, arg = name.partition(":")
    if head == "fig3" and not arg:
        return _fig3()
    build, least = _FAMILIES.get(head, (None, 0))
    if build is None:
        raise InputError(f"unknown built-in poset {name!r}")
    try:
        size = int(arg) if arg or head != "lambda" else 2
    except ValueError as exc:
        raise InputError(f"bad poset name {name!r}: {exc}") from exc
    if size < least:
        raise InputError(f"bad poset name {name!r}: size must be at least {least}")
    return build(size)


def load_poset(source: str) -> FinitePoset:
    """Resolve a built-in name or a JSON file path.

    An unreadable source whose text before ``:`` names a built-in family
    reports the built-in's own error (say, a size out of range).
    """
    try:
        return builtin_poset(source)
    except InputError as exc:
        builtin_error = exc
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return FinitePoset.from_json(fh.read())
    except OSError as exc:
        if source.partition(":")[0] in (*_FAMILIES, "fig3"):
            raise builtin_error from None
        raise InputError(
            f"poset source {source!r} is neither a built-in name nor a readable file"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"poset file {source!r} is not UTF-8 text: {exc}") from exc


def __getattr__(name: str):
    # The P0 view lives in ``verify``; callers that look it up here get it on demand.
    if name == "AugmentedPoset":
        from .verify import AugmentedPoset

        return AugmentedPoset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
