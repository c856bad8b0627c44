"""Interval diagrams of generalized subword order and the oracle route.

:func:`build_interval` makes the Hasse diagram of [u, w] by a breadth-first
search over the cover moves of :func:`words.lower_covers`, and
:func:`mobius_oracle` runs the classical Mobius recursion over it.  The oracle
shares no code with the formula route (module ``mobius``).
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError, ResourceLimitError
from .poset import FinitePoset
from .words import (
    DEFAULT_MAX_NODES,
    Word,
    check_interval,
    format_word,
    is_leq_words,
    lower_covers,
    trusted_leq,
)


class IntervalDiagram:
    """Explicit Hasse diagram of an interval [u, w] of generalized subword order.

    Only :func:`build_interval` constructs one, and the passes below trust it.
    Nodes are deduplicated canonical words, sorted by length then by natural
    labels; ``covers_down[i]`` lists the ids of the nodes that node i covers.
    Node order is a linear extension: every edge (a, b), where b covers a, has
    a < b, and no edge repeats.
    """

    def __init__(
        self,
        poset: FinitePoset,
        bottom: Word,
        top: Word,
        nodes: list[Word],
        covers_down: list[list[int]],
    ):
        self.poset = poset
        self.bottom = bottom
        self.top = top
        self.nodes = nodes
        self._covers_down = covers_down
        self._covers_up: list[list[int]] = [[] for _ in nodes]
        for i, lower in enumerate(covers_down):
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
        masks = self._reach(range(len(self.nodes))[::-1], self._covers_up)
        top = len(self.nodes) - 1  # bit p of each mask stands for node top - p
        return [{top - p for p, bit in enumerate(bin(m)[:1:-1]) if bit == "1"} for m in masks]

    def mobius_bottom_to(self) -> dict[Word, int]:
        """mu(bottom, v) for every node v, by the classical recursion."""
        return self._mobius_along(range(len(self.nodes)), self._covers_down)

    def mobius_to_top(self) -> dict[Word, int]:
        """mu(v, top) for every node v, by the dual recursion."""
        return self._mobius_along(range(len(self.nodes))[::-1], self._covers_up)

    def _reach(self, order: Sequence[int], neighbours: list[list[int]]) -> list[int]:
        """Each node's reach as an int mask: the bit of node i joined with the
        masks of neighbours[i], which order visits first.  Bit p stands for
        order[p], so either pass's masks grow only as wide as it has come."""
        reach = [0] * len(self.nodes)
        for p, i in enumerate(order):
            mask = 1 << p
            for j in neighbours[i]:
                mask |= reach[j]
            reach[i] = mask
        return reach

    def _mobius_along(self, order: Sequence[int], before: list[list[int]]) -> dict[Word, int]:
        """mu from the end the node order starts at to every node;
        before[i] lists the neighbours of node i on that side."""
        reach = self._reach(order, before)
        mu = [0] * len(self.nodes)
        having: dict[int, int] = {}  # each nonzero mu so far -> the mask of nodes with it
        for p, i in enumerate(order):  # i is in no mask yet: reach[i] counts the nodes before it
            r = reach[i]
            m = -sum(v * (r & mask).bit_count() for v, mask in having.items()) if before[i] else 1
            if m:
                mu[i] = m
                having[m] = having.get(m, 0) | 1 << p
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
) -> tuple[list[Word], list[list[int]]]:
    """Every element of [u, w], numbered as it is found, with the ids of the
    elements of [u, w] it covers.

    A breadth-first search down from w (id 0) over :func:`lower_covers`,
    keeping the words >= u.  u and w must be checked words with u <= w.
    """
    ids = {w: 0}
    words = [w]
    below: list[list[int]] = []
    for v in words:
        lower = []
        for _, _, z in lower_covers(poset, v):
            if u and not trusted_leq(poset, u, z):  # every word is >= ()
                continue
            k = ids.get(z)
            if k is None:
                if len(words) >= max_nodes:
                    raise ResourceLimitError(f"interval would exceed the {max_nodes}-node cap")
                k = ids[z] = len(words)
                words.append(z)
            lower.append(k)
        below.append(lower)
    return words, below


def build_interval(
    poset: FinitePoset, u: Sequence[int], w: Sequence[int], max_nodes: int = DEFAULT_MAX_NODES
) -> IntervalDiagram:
    """The Hasse diagram of [u, w], bounded by the node cap alone: no word-length cap applies."""
    u, w = check_interval(poset, u, w, "build_interval")

    words, below = interval_covers(poset, u, w, max_nodes)
    label = poset.labels
    # Length, then labels, is a linear extension: a cover is shorter, or
    # lowers one letter to a smaller label.
    order = sorted(range(len(words)), key=lambda k: (len(words[k]), [label[x] for x in words[k]]))
    new_id = [0] * len(order)
    for i, k in enumerate(order):
        new_id[k] = i
    covers_down = [[new_id[k] for k in below[j]] for j in order]
    return IntervalDiagram(poset, u, w, [words[k] for k in order], covers_down)


def mobius_oracle(
    poset: FinitePoset, u: Sequence[int], w: Sequence[int], max_nodes: int = DEFAULT_MAX_NODES
) -> int:
    """Classical Mobius recursion over the explicit interval diagram of
    :func:`build_interval`; 0 where u is not <= w, as there is no interval."""
    if not is_leq_words(poset, u, w):
        return 0
    diagram = build_interval(poset, u, w, max_nodes=max_nodes)
    return diagram.mobius_bottom_to()[diagram.top]
