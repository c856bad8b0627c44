"""Words over P, generalized subword order, embeddings and interval diagrams."""

from __future__ import annotations

import json
from typing import Iterator, Sequence

from .errors import DomainError, InputError, ResourceLimitError
from .poset import ZERO, FinitePoset, NaturalLabeling, natural_labeling

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

    def place(j: int, start: int) -> None:
        if j == len(u):
            out.append(tuple(eta))
            return
        # need len(u)-j more slots in positions start..len(w)-1
        for i in range(start, len(w) - (len(u) - j) + 1):
            if w[i] in above[u[j]]:
                eta[i] = u[j]
                place(j + 1, i + 1)
                eta[i] = ZERO

    place(0, 0)
    return out


def rightmost_embedding(poset: FinitePoset, u: Sequence[int], w: Sequence[int]) -> Embedding:
    """Greedy right-to-left matching; every letter sits as far right as possible."""
    u = check_word(poset, u)
    w = check_word(poset, w)
    above = poset.above
    eta = [ZERO] * len(w)
    j = len(u) - 1
    for i in range(len(w) - 1, -1, -1):
        if j >= 0 and w[i] in above[u[j]]:
            eta[i] = u[j]
            j -= 1
    if j >= 0:
        raise DomainError("no embedding exists: u is not <= w")
    return tuple(eta)


def runs(w: Sequence[int]) -> list[tuple[int, int, int]]:
    """Maximal constant blocks as (letter, start, end), 1-based inclusive."""
    out: list[tuple[int, int, int]] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] != w[start]:
            out.append((w[start], start + 1, i))
            start = i
    return out


class IntervalDiagram:
    """Explicit Hasse diagram of an interval [u, w] of generalized subword order.

    Nodes are deduplicated canonical words, sorted by length then by natural
    labels; edges are the covers of the induced subposet.
    """

    def __init__(
        self,
        poset: FinitePoset,
        bottom: Word,
        top: Word,
        nodes: Sequence[Word],
        edges: Sequence[tuple[int, int]],
        ranks: Sequence[int],
    ):
        self.poset = poset
        self.bottom = bottom
        self.top = top
        self.nodes = tuple(tuple(v) for v in nodes)
        self.edges = tuple(sorted((int(a), int(b)) for a, b in edges))
        self.ranks = tuple(int(r) for r in ranks)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self._covers_down: list[list[int]] = [[] for _ in self.nodes]
        self._covers_up: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:  # b covers a
            self._covers_down[b].append(a)
            self._covers_up[a].append(b)

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return len(self.edges)

    def covers_down(self, v: Word) -> list[Word]:
        return [self.nodes[i] for i in self._covers_down[self.index[v]]]

    def covers_up(self, v: Word) -> list[Word]:
        return [self.nodes[i] for i in self._covers_up[self.index[v]]]

    def maximal_chains(self, max_chains: int = DEFAULT_MAX_CHAINS) -> list[tuple[Word, ...]]:
        """All maximal chains, each top-to-bottom."""
        out: list[tuple[Word, ...]] = []
        acc = [self.index[self.top]]

        def descend(i: int) -> None:
            if self.nodes[i] == self.bottom:
                if len(out) >= max_chains:
                    raise ResourceLimitError(
                        f"interval has more than {max_chains} maximal chains"
                    )
                out.append(tuple(self.nodes[j] for j in acc))
                return
            for j in self._covers_down[i]:
                acc.append(j)
                descend(j)
                acc.pop()

        descend(acc[0])
        return out

    def mobius_bottom_to(self) -> dict[Word, int]:
        """mu(bottom, v) for every node v, by the classical recursion."""
        return self._mobius_along(self._topo_from_bottom(), self._covers_down)

    def mobius_to_top(self) -> dict[Word, int]:
        """mu(v, top) for every node v, by the dual recursion."""
        return self._mobius_along(self._topo_from_bottom()[::-1], self._covers_up)

    def _mobius_along(self, order: list[int], before: list[list[int]]) -> dict[Word, int]:
        """mu from the end the topological order starts at to every node;
        before[i] lists the neighbours of node i on that side."""
        reach: list[set[int]] = [set() for _ in self.nodes]
        mu = [0] * len(self.nodes)
        for i in order:
            reach[i] = {i}.union(*(reach[j] for j in before[i]))
            strict = reach[i] - {i}
            mu[i] = -sum(mu[j] for j in strict) if strict else 1
        return {v: mu[i] for i, v in enumerate(self.nodes)}

    def _topo_from_bottom(self) -> list[int]:
        indeg = [len(self._covers_down[i]) for i in range(len(self.nodes))]
        order = [i for i in range(len(self.nodes)) if indeg[i] == 0]
        k = 0
        while k < len(order):
            for j in self._covers_up[order[k]]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
            k += 1
        return order

    # -- export ---------------------------------------------------------------

    def export_json(self) -> str:
        return json.dumps(
            {
                "bottom": format_word(self.poset, self.bottom),
                "top": format_word(self.poset, self.top),
                "nodes": [format_word(self.poset, v) for v in self.nodes],
                "edges": [list(e) for e in self.edges],
                "ranks": list(self.ranks),
            }
        )

    @classmethod
    def from_json(cls, poset: FinitePoset, text: str) -> "IntervalDiagram":
        try:
            data = json.loads(text)
            nodes = [parse_word(poset, s) for s in data["nodes"]]
            ends = [parse_word(poset, data[k]) for k in ("bottom", "top")]
            edges = [tuple(e) for e in data["edges"]]
            if len(data["ranks"]) != len(nodes):
                raise ValueError(f"{len(data['ranks'])} ranks for {len(nodes)} nodes")
            if any(v not in nodes for v in ends):
                raise ValueError("bottom and top must be nodes")
            for e in edges:
                if len(e) != 2 or not all(0 <= i < len(nodes) for i in e):
                    raise ValueError(f"edge {list(e)} is not a pair of node indices")
            return cls(poset, *ends, nodes, edges, data["ranks"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad interval JSON: {exc}") from exc

    def export_dot(self) -> str:
        # Edges point cover -> covered, so the top renders first.
        lines = ["digraph interval {"]
        for i, v in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{format_word(self.poset, v)}"];')
        for a, b in self.edges:
            lines.append(f"  n{b} -> n{a};")
        lines.append("}")
        return "\n".join(lines)

    def export(self, fmt: str) -> str:
        if fmt == "json":
            return self.export_json()
        if fmt == "dot":
            return self.export_dot()
        raise InputError(f"unknown export format {fmt!r}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntervalDiagram)
            and self.poset == other.poset
            and self.bottom == other.bottom
            and self.top == other.top
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.ranks == other.ranks
        )

    def __hash__(self) -> int:
        return hash((self.bottom, self.top, self.nodes, self.edges))


def interval_covers(
    poset: FinitePoset, u: Word, w: Word, max_nodes: int
) -> dict[Word, list[Word]]:
    """Every element of [u, w] with the elements of [u, w] it covers.

    A breadth-first search down from w over :func:`lower_covers`, keeping the
    words >= u.  u and w must be checked words with u <= w.
    """
    below: dict[Word, list[Word]] = {w: []}
    queue = [w]
    for v in queue:
        lower = below[v]
        for j, y in lower_covers(poset, v):
            z = v[:j] + v[j + 1 :] if y == ZERO else v[:j] + (y,) + v[j + 1 :]
            if not trusted_leq(poset, u, z):
                continue
            lower.append(z)
            if z not in below:
                if len(below) >= max_nodes:
                    raise ResourceLimitError(
                        f"interval would exceed the {max_nodes}-node cap"
                    )
                below[z] = []
                queue.append(z)
    return below


def build_interval(
    poset: FinitePoset,
    u: Sequence[int],
    w: Sequence[int],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_word_len: int = DEFAULT_MAX_WORD_LEN,
    labeling: NaturalLabeling | None = None,
) -> IntervalDiagram:
    u = check_word(poset, u)
    w = check_word(poset, w)
    if len(w) > max_word_len:
        raise ResourceLimitError(
            f"|w| = {len(w)} exceeds the word-length cap {max_word_len}"
        )
    if not trusted_leq(poset, u, w):
        raise DomainError("build_interval requires u <= w")
    if labeling is None:
        labeling = natural_labeling(poset)

    below = interval_covers(poset, u, w, max_nodes)
    label = [labeling(x) for x in range(poset.n)]
    # Length, then labels, is a linear extension: a cover is shorter, or
    # lowers one letter to a smaller label.
    nodes = sorted(below, key=lambda v: (len(v), tuple(label[x] for x in v)))
    index = {v: i for i, v in enumerate(nodes)}
    edges: list[tuple[int, int]] = []
    ranks: list[int] = []
    for i, v in enumerate(nodes):
        lower = [index[z] for z in below[v]]
        edges.extend((k, i) for k in lower)
        ranks.append(max((ranks[k] + 1 for k in lower), default=0))

    return IntervalDiagram(poset, u, w, nodes, edges, ranks)
