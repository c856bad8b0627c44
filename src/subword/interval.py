"""Interval diagrams of generalized subword order and the oracle route.

:func:`build_interval` makes the Hasse diagram of [u, w] by a breadth-first
search over the cover moves of :func:`words.lower_covers`, and
:func:`mobius_oracle` runs the classical Mobius recursion over it.  The oracle
shares no code with the formula route (module ``mobius``).
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError, InputError, ResourceLimitError
from .poset import FinitePoset
from .words import (
    DEFAULT_MAX_NODES,
    Word,
    check_interval,
    format_word,
    is_leq_words,
    lower_covers,
    parse_word,
    trusted_leq,
)


class IntervalDiagram:
    """Explicit Hasse diagram of an interval [u, w] of generalized subword order.

    Only :func:`build_interval` constructs one, and the passes below trust it.
    Nodes are deduplicated canonical words, sorted by length then by natural
    labels; ``covers_down`` maps each node to the nodes it covers.  Node
    order is a linear extension: every edge (a, b), where b covers a, has
    a < b, and no edge repeats.
    """

    def __init__(
        self,
        poset: FinitePoset,
        bottom: Word,
        top: Word,
        nodes: list[Word],
        covers_down: dict[Word, list[Word]],
    ):
        self.poset = poset
        self.bottom = bottom
        self.top = top
        self.nodes = nodes
        self.index = index = {v: i for i, v in enumerate(nodes)}
        self._covers_down: list[list[int]] = []
        self._covers_up: list[list[int]] = [[] for _ in nodes]
        for i, v in enumerate(nodes):
            lower = [index[z] for z in covers_down[v]]
            self._covers_down.append(lower)
            for k in lower:
                self._covers_up[k].append(i)

    @property
    def ranks(self) -> list[int]:
        """The length of a longest chain from the bottom to each node."""
        ranks: list[int] = []
        for lower in self._covers_down:
            ranks.append(max((ranks[k] + 1 for k in lower), default=0))
        return ranks

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (a, b), where node b covers node a, in sorted order."""
        return tuple((a, b) for a, up in enumerate(self._covers_up) for b in up)

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(map(len, self._covers_up))

    def up_sets(self) -> list[set[int]]:
        """The indices of the nodes at or above each node, from the top down."""
        return self._reach(range(len(self.nodes))[::-1], self._covers_up)

    def mobius_bottom_to(self) -> dict[Word, int]:
        """mu(bottom, v) for every node v, by the classical recursion."""
        return self._mobius_along(range(len(self.nodes)), self._covers_down)

    def mobius_to_top(self) -> dict[Word, int]:
        """mu(v, top) for every node v, by the dual recursion."""
        return self._mobius_along(range(len(self.nodes))[::-1], self._covers_up)

    def _reach(self, order: Sequence[int], neighbours: list[list[int]]) -> list[set[int]]:
        """Node i joined with the reach of neighbours[i], which order visits first."""
        reach: list[set[int]] = [set() for _ in self.nodes]
        for i in order:
            reach[i] = {i}.union(*(reach[j] for j in neighbours[i]))
        return reach

    def _mobius_along(self, order: Sequence[int], before: list[list[int]]) -> dict[Word, int]:
        """mu from the end the node order starts at to every node;
        before[i] lists the neighbours of node i on that side."""
        reach = self._reach(order, before)
        mu = [0] * len(self.nodes)
        for i in order:  # mu[i] is still 0, so summing over reach[i] skips it
            mu[i] = -sum(mu[j] for j in reach[i]) if len(reach[i]) > 1 else 1
        return {v: mu[i] for i, v in enumerate(self.nodes)}

    # -- export ---------------------------------------------------------------

    def export_json(self) -> str:
        import json

        return json.dumps(
            {
                "bottom": format_word(self.poset, self.bottom),
                "top": format_word(self.poset, self.top),
                "nodes": [format_word(self.poset, v) for v in self.nodes],
                "edges": self.edges,
                "ranks": self.ranks,
            }
        )

    @classmethod
    def from_json(cls, poset: FinitePoset, text: str) -> "IntervalDiagram":
        """The diagram :meth:`export_json` writes for [bottom, top], rebuilt;
        any other JSON, even a valid diagram in another node order, is an
        :class:`InputError`.  The JSON's own size caps the rebuild."""
        import json

        try:
            data = json.loads(text)
            texts = (*data["nodes"], data["bottom"], data["top"])
            if not all(isinstance(s, str) for s in texts):
                raise ValueError("nodes, bottom and top must be word strings")
            bottom, top = (parse_word(poset, data[k]) for k in ("bottom", "top"))
            diagram = build_interval(poset, bottom, top, max_nodes=len(data["nodes"]))
            for key, value in json.loads(diagram.export_json()).items():
                if json.dumps(data[key]) != json.dumps(value):
                    raise ValueError(f"{key!r} is not what [bottom, top] exports")
            return diagram
        except (KeyError, TypeError, ValueError, InputError, DomainError,
                ResourceLimitError) as exc:
            raise InputError(f"bad interval JSON: {exc}") from exc

    def export_dot(self) -> str:
        # Edges point cover -> covered, so the top renders first.
        lines = ["digraph interval {"]
        for i, v in enumerate(self.nodes):
            label = format_word(self.poset, v).replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
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
        for _, _, z in lower_covers(poset, v):
            if u and not trusted_leq(poset, u, z):  # every word is >= ()
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
    poset: FinitePoset, u: Sequence[int], w: Sequence[int], max_nodes: int = DEFAULT_MAX_NODES
) -> IntervalDiagram:
    """The Hasse diagram of [u, w], bounded by the node cap alone: no word-length cap applies."""
    u, w = check_interval(poset, u, w, "build_interval")

    below = interval_covers(poset, u, w, max_nodes)
    label = poset.labels
    # Length, then labels, is a linear extension: a cover is shorter, or
    # lowers one letter to a smaller label.
    nodes = sorted(below, key=lambda v: (len(v), tuple(label[x] for x in v)))
    return IntervalDiagram(poset, u, w, nodes, below)


def mobius_oracle(
    poset: FinitePoset, u: Sequence[int], w: Sequence[int], max_nodes: int = DEFAULT_MAX_NODES
) -> int:
    """Classical Mobius recursion over the explicit interval diagram of
    :func:`build_interval`; 0 where u is not <= w, as there is no interval."""
    if not is_leq_words(poset, u, w):
        return 0
    diagram = build_interval(poset, u, w, max_nodes=max_nodes)
    return diagram.mobius_bottom_to()[diagram.top]
