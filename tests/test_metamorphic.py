"""Metamorphic tests: relations of generalized subword order that every
Mobius route must respect (reversal, relabeling, irrelevant elements),
checked on words far longer than the interval suites sweep.  The formula,
the oracle and the Morse sum each break the symmetry in their own way (first
slots of runs, node order by labels, chains by labels), so no check is
trivial for any of them."""

import random

from subword import FinitePoset, IntegerOverflowError, builtin_poset, mobius_main, mobius_oracle
from subword.morse import MorseEngine
from subword.poset import DEFAULT_POSET_SPEC
from subword.verify import random_poset
from test_morse import permuted_poset

SEEDS = range(6)
POSETS = [builtin_poset(name) for name in DEFAULT_POSET_SPEC.split(",")]
POSETS += [random_poset(seed) for seed in SEEDS] + [permuted_poset(seed) for seed in SEEDS]


def formula(poset, u, w):
    """mu(u, w) by the formula, or "overflow" past the signed 64-bit range."""
    try:
        return mobius_main(poset, u, w).value
    except IntegerOverflowError:
        return "overflow"


def pairs(rng, poset, max_len, count):
    """count pairs (u, w) with 1 <= |w| <= max_len: most u are subwords of w
    with each kept letter lowered within P, so u <= w; every fifth u is a
    random word, mostly not <= w."""
    below = [[y for y in range(poset.n) if x in poset.above[y]] for x in range(poset.n)]
    for k in range(count):
        w = tuple(rng.randrange(poset.n) for _ in range(rng.randint(1, max_len)))
        if k % 5 == 4:
            u = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, len(w))))
        else:
            keep = rng.random()
            u = tuple(rng.choice(below[x]) for x in w if rng.random() < keep)
        yield u, w


def test_formula_is_invariant_under_reversal():
    """Reading words backwards is an automorphism of P*: u <= w iff the
    reversal of u is <= the reversal of w, so [u, w] and [rev u, rev w] are
    isomorphic and mu(u, w) = mu(rev u, rev w), here for |w| <= 40."""
    rng = random.Random(19)
    nonzero = 0
    for poset in POSETS:
        for u, w in pairs(rng, poset, 40, 200):
            mu = formula(poset, u, w)
            assert formula(poset, u[::-1], w[::-1]) == mu, (poset, u, w)
            nonzero += mu != 0
    assert nonzero >= 500


def test_oracle_and_morse_are_invariant_under_reversal():
    """mu(u, w) = mu(rev u, rev w), as for the formula, by the oracle
    recursion and the Morse sum on |w| <= 7."""
    rng = random.Random(7)
    nonzero = 0
    for poset in POSETS:
        engine = MorseEngine(poset)
        for u, w in pairs(rng, poset, 7, 10):
            mu = mobius_oracle(poset, u, w)
            assert mobius_oracle(poset, u[::-1], w[::-1]) == mu, (poset, u, w)
            assert engine.mobius_morse(u, w) == engine.mobius_morse(u[::-1], w[::-1]) == mu
            nonzero += mu != 0
    assert nonzero >= 30


def test_mu_is_invariant_under_relabeling():
    """An isomorphism of P that renumbers its ids extends letterwise to an
    isomorphism of P*, so mu is unchanged when the ids of P are shuffled:
    by the formula for |w| <= 40, and by the oracle and Morse for |w| <= 7.
    permuted_poset(s) is random_poset(s, 6) with the names moved with the
    ids, so a name gives each letter's new id."""
    rng = random.Random(23)
    nonzero = 0
    for seed in range(12):
        base, moved = random_poset(seed, 6), permuted_poset(seed)
        perm = [moved.id_of(name) for name in base.names]
        engine = MorseEngine(moved)
        for max_len, count in ((40, 20), (7, 4)):
            for u, w in pairs(rng, base, max_len, count):
                pu, pw = tuple(perm[x] for x in u), tuple(perm[x] for x in w)
                mu = formula(base, u, w)
                assert formula(moved, pu, pw) == mu, (seed, u, w)
                if max_len == 7:
                    assert mobius_oracle(moved, pu, pw) == engine.mobius_morse(pu, pw) == mu
                nonzero += mu != 0
    assert nonzero >= 100


def with_irrelevant_elements(rng, poset, count):
    """poset with count new elements listed first, so each old id x becomes
    x + count.  Each new element covers a random antichain of the elements
    before it (old, or new ones already added) and lies below no old one."""
    below = {x + count: {y + count for y in range(poset.n) if x in poset.above[y]}
             for x in range(poset.n)}
    covers = [(a + count, b + count) for a, b in poset.covers]
    for q in range(count):
        pool = [x for x in below if rng.random() < 0.3]
        lower = [x for x in pool if not any(x != y and x in below[y] for y in pool)]
        covers += [(x, q) for x in lower]
        below[q] = {q}.union(*(below[x] for x in lower))
    return FinitePoset([f"new{q}" for q in range(count)] + list(poset.names), covers)


def test_mu_is_invariant_under_irrelevant_elements():
    """Adjoining to P elements that lie below no letter of w, and below no
    old element, keeps the order of P and adds no word below w, so [u, w] is
    the same poset and mu(u, w) is unchanged.  Every mu0(x, w(j)) the formula
    reads is unchanged too, since [x, w(j)] of P0 gains no element.  The new
    elements come first, so every old id shifts and most labels do: by the
    formula for |w| <= 40, and by the oracle and Morse for |w| <= 7."""
    rng = random.Random(29)
    nonzero = 0
    for poset in POSETS:
        grown = with_irrelevant_elements(rng, poset, rng.randint(1, 4))
        shift = grown.n - poset.n
        engine = MorseEngine(grown)
        for max_len, count in ((40, 20), (7, 4)):
            for u, w in pairs(rng, poset, max_len, count):
                su, sw = tuple(x + shift for x in u), tuple(x + shift for x in w)
                mu = formula(poset, u, w)
                assert formula(grown, su, sw) == mu, (poset, u, w)
                if max_len == 7:
                    assert mobius_oracle(grown, su, sw) == engine.mobius_morse(su, sw) == mu
                nonzero += mu != 0
    assert nonzero >= 100
