"""The interval passes over int masks against a set-based reference.

The reference is the recursion the masks replaced: a Python set of node ids
per node, read from the diagram's public edge list alone.
"""

import random

import pytest

from subword import build_interval, builtin_poset
from subword.verify import all_words, random_poset


def reference_passes(d):
    """up_sets(), mobius_bottom_to() and mobius_to_top() of d, with sets."""
    n = len(d.nodes)
    down, up = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, b in d.edges:
        down[b].append(a)
        up[a].append(b)

    def reach(order, neighbours):
        sets = [set() for _ in range(n)]
        for i in order:
            sets[i] = {i}.union(*(sets[j] for j in neighbours[i]))
        return sets

    def mobius(order, before):
        sets = reach(order, before)
        mu = [0] * n
        for i in order:  # mu[i] is still 0, so summing over sets[i] skips it
            mu[i] = -sum(mu[j] for j in sets[i]) if len(sets[i]) > 1 else 1
        return {v: mu[i] for i, v in enumerate(d.nodes)}

    return reach(range(n)[::-1], up), mobius(range(n), down), mobius(range(n)[::-1], up)


POSETS = [(name, builtin_poset(name))
          for name in ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")]
POSETS += [(f"random:{s}", random_poset(s)) for s in range(50)]


@pytest.mark.parametrize("name,poset", POSETS, ids=[name for name, _ in POSETS])
def test_masks_match_set_reference(name, poset):
    # every [empty, w] with |w| <= 3 (fig3: 2), and [u, w] for two seeded
    # non-empty u below each w
    rng = random.Random(name)
    checked = 0
    for w in all_words(poset, 2 if name == "fig3" else 3):
        whole = build_interval(poset, (), w)
        bottoms = [()] + rng.sample(whole.nodes[1:], min(2, len(whole.nodes) - 1))
        for u in bottoms:
            d = whole if u == () else build_interval(poset, u, w)
            up, down_mu, up_mu = reference_passes(d)
            assert d.up_sets() == up, (u, w)
            assert d.mobius_bottom_to() == down_mu, (u, w)
            assert d.mobius_to_top() == up_mu, (u, w)
            checked += 1
    assert checked > 1
