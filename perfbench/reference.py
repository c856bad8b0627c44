"""Reference computations that share no code with the program under test.

A ground poset is given by element names and cover pairs of element ids.
Words are tuples of ids.  The interval [u, w] of generalized subword order is
built by walking one-move lower covers down from w (lower one letter by one
cover of P, or delete a letter that is minimal in P), and the formula value
mu(u, w) is a dynamic programme over positions of w: each embedding of u
contributes a product of per-position factors mu0(eta(j), w(j)), plus 1 when
eta(j) is the adjoined bottom and w(j-1) = w(j).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

ZERO = -1  # the bottom adjoined to P


@dataclass(frozen=True)
class Poset:
    names: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]  # (a, b): b covers a

    @cached_property
    def lower(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.names]
        for a, b in self.covers:
            out[b].append(a)
        return [sorted(x) for x in out]

    @cached_property
    def up(self) -> list[set[int]]:
        """up[a] = {b : a <= b}."""
        n = len(self.names)
        upper: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.covers:
            upper[a].append(b)
        memo: dict[int, set[int]] = {}

        def reach(a: int) -> set[int]:
            if a not in memo:
                s = {a}
                for b in upper[a]:
                    s |= reach(b)
                memo[a] = s
            return memo[a]

        return [reach(a) for a in range(n)]

    def leq(self, a: int, b: int) -> bool:
        return b in self.up[a]

    def to_json(self) -> dict:
        return {
            "elements": list(self.names),
            "covers": [[self.names[a], self.names[b]] for a, b in self.covers],
        }

    def fmt(self, w: tuple[int, ...]) -> str:
        if not w:
            return "∅"
        sep = "" if all(len(nm) == 1 for nm in self.names) else ","
        return sep.join(self.names[x] for x in w)

    def parse(self, text: str) -> tuple[int, ...]:
        ids = {nm: i for i, nm in enumerate(self.names)}
        return tuple(ids[ch] for ch in text)


def lambda_s(s: int) -> Poset:
    """An s-element antichain 1..s with a top element s+1 above all of it."""
    return Poset(tuple(str(i + 1) for i in range(s + 1)), tuple((i, s) for i in range(s)))


FIG3 = Poset(
    tuple(str(i + 1) for i in range(9)),
    ((0, 4), (0, 5), (1, 5), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8), (6, 8), (7, 8)),
)


def random_poset(rng: random.Random, max_elements: int = 5) -> Poset:
    """A random poset on at most max_elements elements, covers transitively reduced."""
    n = rng.randint(2, max_elements)
    edges = {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4}
    reach = [{a} for a in range(n)]
    for a in range(n - 1, -1, -1):
        for b in range(a + 1, n):
            if (a, b) in edges:
                reach[a] |= reach[b]
    covers = sorted(
        (a, b)
        for a, b in edges
        if not any(c != b and (a, c) in edges and b in reach[c] for c in range(n))
    )
    return Poset(tuple("abcde"[:n]), tuple(covers))


def is_leq(p: Poset, u: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """u <= w: greedy leftmost matching of u's letters under dominance."""
    j = 0
    for letter in w:
        if j < len(u) and p.leq(u[j], letter):
            j += 1
    return j == len(u)


def lower_covers(p: Poset, w: tuple[int, ...]) -> set[tuple[int, ...]]:
    out = set()
    for i, x in enumerate(w):
        for y in p.lower[x]:
            out.add(w[:i] + (y,) + w[i + 1 :])
        if not p.lower[x]:
            out.add(w[:i] + w[i + 1 :])
    return out


@dataclass
class Interval:
    nodes: list[tuple[int, ...]]
    edges: set[tuple[tuple[int, ...], tuple[int, ...]]]  # (lower, upper)


def interval(p: Poset, u, w, max_nodes: int = 1_000_000) -> Interval | None:
    """The Hasse diagram of [u, w]; None once more than max_nodes are found."""
    seen = {w}
    frontier = [w]
    edges = set()
    while frontier:
        nxt = []
        for v in frontier:
            for c in lower_covers(p, v):
                if not is_leq(p, u, c):
                    continue
                edges.add((c, v))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
                    if len(seen) > max_nodes:
                        return None
        frontier = nxt
    return Interval(sorted(seen, key=lambda v: (len(v), v)), edges)


def mu0_table(p: Poset) -> dict[tuple[int, int], int]:
    """Mobius values of P with a bottom ZERO adjoined, for every a <= b."""
    elems = [ZERO] + list(range(len(p.names)))

    def leq0(a: int, b: int) -> bool:
        return a == ZERO or (b != ZERO and p.leq(a, b))

    table: dict[tuple[int, int], int] = {}

    def mu(a: int, b: int) -> int:
        if (a, b) not in table:
            table[a, b] = 1 if a == b else -sum(
                mu(a, z) for z in elems if z != b and leq0(a, z) and leq0(z, b)
            )
        return table[a, b]

    for a in elems:
        for b in elems:
            if leq0(a, b):
                mu(a, b)
    return table


def formula(p: Poset, u, w, mu0=None) -> int:
    """Sum over embeddings of u in w of the per-position product, by DP."""
    mu0 = mu0 if mu0 is not None else mu0_table(p)
    f = [1] + [0] * len(u)
    for j, x in enumerate(w):
        rep = 1 if j > 0 and w[j - 1] == x else 0
        g = [c * (mu0[ZERO, x] + rep) for c in f]
        for k in range(1, len(u) + 1):
            if p.leq(u[k - 1], x):
                g[k] += f[k - 1] * mu0[u[k - 1], x]
        f = g
    return f[len(u)]


def embedding_count(p: Poset, u, w) -> int:
    f = [1] + [0] * len(u)
    for x in w:
        g = list(f)
        for k in range(1, len(u) + 1):
            if p.leq(u[k - 1], x):
                g[k] += f[k - 1]
        f = g
    return f[len(u)]
