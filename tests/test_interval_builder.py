"""The cover-move interval builder against a brute-force pairwise reference."""

import pytest

from subword import build_interval, builtin_poset, is_leq_words, parse_word
from subword.errors import ResourceLimitError
from subword.verify import all_words, random_poset


def words_below(poset, w):
    """Every word v <= w: each letter of w kept, lowered in P, or deleted."""
    words = {()}
    for x in w:
        words |= {v + (y,) for v in words for y in range(poset.n) if poset.leq(y, x)}
    return words


class PairwiseReference:
    """Every interval [u, w] below one top w, from all pairwise comparisons.

    Bit k of ``above[i]`` says nodes[i] < nodes[k].  A pair is a cover when
    the number of elements strictly between, a Python int from the bitsets,
    is zero.
    """

    def __init__(self, poset, w):
        label = poset.labels
        self.nodes = sorted(
            words_below(poset, w), key=lambda v: (len(v), tuple(label[x] for x in v))
        )
        n = len(self.nodes)
        self.above = [0] * n
        self.below = [0] * n
        for i, a in enumerate(self.nodes):
            for k, b in enumerate(self.nodes):
                if i != k and is_leq_words(poset, a, b):
                    self.above[i] |= 1 << k
                    self.below[k] |= 1 << i

    def interval(self, u):
        """nodes, edges and ranks of [u, w], indexed as build_interval does."""
        iu = self.nodes.index(u)
        keep = [k for k in range(len(self.nodes)) if k == iu or self.above[iu] >> k & 1]
        mask = sum(1 << k for k in keep)
        edges = [
            (a, b)
            for a, i in enumerate(keep)
            for b, k in enumerate(keep)
            if self.above[i] >> k & 1 and (self.above[i] & self.below[k] & mask).bit_count() == 0
        ]
        ranks = [0] * len(keep)
        for b in sorted(range(len(keep)), key=lambda b: (self.below[keep[b]] & mask).bit_count()):
            ranks[b] = max((ranks[a] + 1 for a, c in edges if c == b), default=0)
        return [self.nodes[k] for k in keep], sorted(edges), ranks


def assert_matches_reference(poset, w):
    ref = PairwiseReference(poset, w)
    for u in ref.nodes:
        nodes, edges, ranks = ref.interval(u)
        d = build_interval(poset, u, w)
        assert list(d.nodes) == nodes, (u, w)
        assert list(d.edges) == edges, (u, w)
        assert list(d.ranks) == ranks, (u, w)


@pytest.mark.parametrize(
    "name,max_w",
    [("lambda", 3), ("lambda:3", 3), ("chain:3", 3), ("antichain:3", 3), ("fig3", 2)],
)
def test_builtin_posets_match_pairwise_reference(name, max_w):
    poset = builtin_poset(name)
    for w in all_words(poset, max_w):
        assert_matches_reference(poset, w)


@pytest.mark.parametrize("seed", range(20))
def test_random_posets_match_pairwise_reference(seed):
    poset = random_poset(seed)
    for w in all_words(poset, 3):
        assert_matches_reference(poset, w)


@pytest.mark.parametrize("u,edges", [("", 1380), ("11", 1176)])
def test_no_false_cover_at_256_elements_between(lam, u, edges):
    # (11, 1123233) has exactly 256 elements strictly between.
    d = build_interval(lam, parse_word(lam, u), parse_word(lam, "1123233"))
    assert d.edge_count() == edges


def test_node_cap_counts_interval_elements(lam):
    u, w = parse_word(lam, "11"), parse_word(lam, "333")
    assert build_interval(lam, u, w, max_nodes=24).node_count() == 24
    with pytest.raises(ResourceLimitError, match="exceed the 23-node cap"):
        build_interval(lam, u, w, max_nodes=23)
