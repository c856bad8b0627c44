import itertools
import random

import pytest

from subword import (
    AugmentedPoset,
    DomainError,
    FinitePoset,
    InputError,
    IntegerOverflowError,
    UnsupportedPosetError,
    ZERO,
    build_interval,
    builtin_poset,
    contribution,
    defect,
    embedding_subposet,
    embeddings,
    format_embedding,
    format_word,
    homotopy_type,
    is_leq_words,
    is_normal_forest,
    mobius_bjorner,
    mobius_closed_form,
    mobius_embedding_subposet,
    mobius_forest,
    mobius_main,
    mobius_main_below,
    mobius_oracle,
    normal_embeddings_antichain,
    parse_word,
    rank_word,
    tomie_T,
)
from subword import interval as interval_module
from subword import mobius as mobius_module
from subword.morse import MorseEngine
from subword.specializations import is_antichain, is_rooted_forest
from subword.verify import all_chains, all_words, random_poset


def emb(poset, text):
    return tuple(ZERO if ch == "0" else poset.id_of(ch) for ch in text)


def test_contribution_examples(lam):
    p0 = AugmentedPoset(lam)
    w = parse_word(lam, "333")
    assert contribution(p0, emb(lam, "110"), w) == 2
    assert contribution(p0, emb(lam, "101"), w) == 2
    assert contribution(p0, emb(lam, "011"), w) == 1
    w5 = parse_word(lam, "33333")
    assert contribution(p0, (ZERO,) * 5, w5) == 16
    assert contribution(p0, w, w) == 1
    with pytest.raises(DomainError):
        contribution(p0, emb(lam, "11"), w)  # wrong length
    with pytest.raises(DomainError):
        contribution(p0, emb(lam, "330"), parse_word(lam, "131"))


def test_contribution_two_letter_corollary():
    # factor rule on the a0 embedding of a in ab: mu0(0,b), plus 1 when a = b
    for seed in range(20):
        poset = random_poset(seed)
        p0 = AugmentedPoset(poset)
        for a in range(poset.n):
            for b in range(poset.n):
                if not poset.leq(a, b):
                    continue
                got = contribution(p0, (a, ZERO), (a, b))
                expect = p0.mobius0(ZERO, b) + (1 if a == b else 0)
                assert got == expect


def test_mobius_main_examples(lam, fig3):
    assert mobius_main(lam, parse_word(lam, "11"), parse_word(lam, "333")).value == 5
    assert mobius_main(lam, (), parse_word(lam, "33333")).value == 16
    u = parse_word(lam, "13")
    assert mobius_main(lam, u, u).value == 1
    assert mobius_main(fig3, parse_word(fig3, "2"), parse_word(fig3, "29")).value == 0


def test_mobius_main_incomparable(lam):
    report = mobius_main(lam, parse_word(lam, "2"), parse_word(lam, "11"))
    assert report.value == 0 and not list(report.per_embedding)


def test_mobius_reports_of_one_interval_are_equal_and_hash_alike(lam):
    for u, w in (("11", "333"), ("2", "11")):  # a comparable and a non-comparable pair
        u, w = parse_word(lam, u), parse_word(lam, w)
        first, second = mobius_main(lam, u, w), mobius_main(lam, u, w)
        assert first == second and hash(first) == hash(second)
    assert mobius_main(lam, (0,), (2,)) != mobius_main(lam, (1,), (2,))


def test_mobius_oracle_examples(lam):
    assert mobius_oracle(lam, parse_word(lam, "11"), parse_word(lam, "333")) == 5
    assert mobius_oracle(lam, parse_word(lam, "1"), parse_word(lam, "33")) == -3
    u = parse_word(lam, "31")
    assert mobius_oracle(lam, u, u) == 1


def test_every_route_agrees_on_every_pair():
    # mu(u, w) = 0 for u not <= w on every route, each by its own arithmetic:
    # every ordered pair with |u|, |w| <= 2, most of them off intervals
    names = ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")
    posets = [builtin_poset(name) for name in names] + [random_poset(s) for s in range(20)]
    pairs = off = 0
    for poset in posets:
        engine = MorseEngine(poset)
        words = list(all_words(poset, 2))
        for u, w in itertools.product(words, repeat=2):
            mu = mobius_main(poset, u, w).value
            assert mobius_oracle(poset, u, w) == engine.mobius_morse(u, w) == mu, (u, w)
            if is_antichain(poset):
                assert mobius_bjorner(poset, u, w) == mu, (u, w)
            if is_rooted_forest(poset):
                assert mobius_forest(poset, u, w) == mu, (u, w)
            pairs += 1
            off += not is_leq_words(poset, u, w)
    assert (pairs, off) == (15665, 12663)


def test_normal_embeddings_antichain():
    a2 = builtin_poset("antichain:2")
    u = parse_word(a2, "121")
    w = parse_word(a2, "1122121")
    count, normal = normal_embeddings_antichain(a2, u, w)
    assert count == 2
    assert sorted(format_embedding(a2, e) for e in normal) == ["0102001", "0102100"]
    assert normal_embeddings_antichain(a2, w, w)[0] == 1
    aa = parse_word(a2, "11")
    assert normal_embeddings_antichain(a2, (), aa)[0] == 0
    with pytest.raises(DomainError):
        normal_embeddings_antichain(builtin_poset("lambda"), u, w)


def test_mobius_bjorner():
    a2 = builtin_poset("antichain:2")
    u = parse_word(a2, "121")
    w = parse_word(a2, "1122121")
    assert mobius_bjorner(a2, u, w) == 2
    assert mobius_bjorner(a2, u, u) == 1
    a1 = builtin_poset("antichain:1")
    assert mobius_bjorner(a1, parse_word(a1, "1"), parse_word(a1, "111")) == 0
    assert mobius_bjorner(a2, parse_word(a2, "2"), parse_word(a2, "11")) == 0


@pytest.mark.parametrize(
    "entry, wrong_kind",
    [
        (mobius_bjorner, "chain:3"),  # a rooted forest, not an antichain
        (normal_embeddings_antichain, "chain:3"),
        (mobius_forest, "lambda"),  # 3 covers both 1 and 2
    ],
)
def test_specialization_entries_reject_bad_input(entry, wrong_kind):
    # each entry checks its words once, through the embedding enumeration,
    # and its poset's kind before any word
    a2 = builtin_poset("antichain:2")
    for u, w in (((), (5,)), ((5,), ()), ((ZERO,), (0, 1)), ((0,), (1, ZERO)), ((-2,), (0,))):
        with pytest.raises(InputError):
            entry(a2, u, w)
    with pytest.raises(DomainError):
        entry(builtin_poset(wrong_kind), (), (0,))
    with pytest.raises(DomainError):  # the kind is checked first
        entry(builtin_poset(wrong_kind), (), (5,))


@pytest.mark.parametrize(
    "entry",
    [
        lambda p, eta, w: contribution(AugmentedPoset(p), eta, w),
        is_normal_forest,
        defect,
        embedding_subposet,
    ],
    ids=["contribution", "is_normal_forest", "defect", "embedding_subposet"],
)
def test_entries_taking_one_embedding_share_one_guard(entry):
    chain = builtin_poset("chain:3")
    for eta, w in (((0, 0), (0,)), ((2,), (0,))):  # wrong length; 3 is not <= 1
        with pytest.raises(DomainError, match="^eta is not an embedding in w$"):
            entry(chain, eta, w)
    with pytest.raises(InputError):  # w's letter 5 is not an element
        entry(chain, (ZERO,), (5,))


def test_is_normal_forest_and_defect():
    chain = builtin_poset("chain:3")
    w22 = parse_word(chain, "22")
    assert is_normal_forest(chain, emb(chain, "12"), w22)
    assert defect(chain, emb(chain, "12"), w22) == 1
    assert is_normal_forest(chain, w22, w22)
    assert defect(chain, w22, w22) == 0
    # in a run of a minimal letter only the first slot may be zeroed
    w11 = parse_word(chain, "11")
    assert is_normal_forest(chain, emb(chain, "01"), w11)
    assert not is_normal_forest(chain, emb(chain, "10"), w11)
    # a run of a non-minimal letter needs its first slot nonzero
    assert not is_normal_forest(chain, emb(chain, "01"), w22)
    assert is_normal_forest(chain, emb(chain, "21"), w22)
    assert defect(chain, emb(chain, "21"), w22) == 1
    with pytest.raises(DomainError):
        is_normal_forest(builtin_poset("lambda"), emb(chain, "12"), w22)
    # defect, like is_normal_forest, takes only an embedding of w
    for eta, w in (((0, 0, 0), (1,)), ((2,), (0,))):  # wrong length; 3 is not <= 1
        with pytest.raises(DomainError):
            defect(chain, eta, w)
    with pytest.raises(InputError):  # no element has id 5
        defect(chain, (5,), (2,))


def test_mobius_forest_examples():
    chain = builtin_poset("chain:3")
    u, w = parse_word(chain, "1"), parse_word(chain, "22")
    assert mobius_forest(chain, u, w) == mobius_oracle(chain, u, w)
    assert mobius_forest(chain, u, u) == 1


def test_mobius_forest_matches_bjorner_on_antichains():
    a2 = builtin_poset("antichain:2")
    for w in [(0,), (0, 1), (0, 0, 1), (1, 0, 1, 0), (0,) * 5]:
        for u in build_interval(a2, (), w).nodes:
            assert mobius_forest(a2, u, w) == mobius_bjorner(a2, u, w)


def test_mobius_forest_on_two_tree_forest():
    forest = FinitePoset(["1", "2", "3", "4", "5"], [(0, 1), (0, 2), (3, 4)])
    assert is_rooted_forest(forest)
    for w in [(1, 4), (2, 2), (1, 2, 4), (4, 0, 1)]:
        for u in build_interval(forest, (), w).nodes:
            assert mobius_forest(forest, u, w) == mobius_main(forest, u, w).value


def test_embedding_subposet_example(fig3):
    eta = (fig3.id_of("2"), ZERO)
    w = parse_word(fig3, "26")
    sub = embedding_subposet(fig3, eta, w)
    assert [format_word(fig3, v) for v in sub] == ["2", "21", "22", "26"]


def test_embedding_subposet_product_lemma():
    for name in ("lambda", "fig3", "chain:3"):
        poset = builtin_poset(name)
        p0 = AugmentedPoset(poset)
        for a in range(poset.n):
            for b in range(poset.n):
                if not poset.leq(a, b):
                    continue
                got = mobius_embedding_subposet(poset, (ZERO, a), (a, b))
                assert got == p0.mobius0(ZERO, a) * p0.mobius0(a, b)


def mu_pair(poset, nodes, a, b):
    """Classical Mobius recursion from a to b over an explicit node list under
    subword order; the reference for mobius_embedding_subposet."""
    memo = {}

    def mu(v):
        if v == a:
            return 1
        if v not in memo:
            memo[v] = -sum(
                mu(z)
                for z in nodes
                if z != v and is_leq_words(poset, a, z) and is_leq_words(poset, z, v)
            )
        return memo[v]

    assert is_leq_words(poset, a, b)
    return mu(b)


def small_intervals(posets):
    """(poset, u, w) for every u <= w with |w| <= 3."""
    for poset in posets:
        for length in range(4):
            for w in itertools.product(range(poset.n), repeat=length):
                for u in build_interval(poset, (), w).nodes:
                    yield poset, u, w


def test_embedding_subposet_mobius_matches_recursion():
    posets = [builtin_poset("lambda"), builtin_poset("chain:3")]
    posets += [random_poset(seed) for seed in range(10)]
    for poset, u, w in small_intervals(posets):
        for eta in embeddings(poset, u, w):
            nodes = embedding_subposet(poset, eta, w)
            expect = mu_pair(poset, nodes, u, w)
            assert mobius_embedding_subposet(poset, eta, w) == expect


def test_per_embedding_matches_contribution():
    posets = [builtin_poset(name) for name in ("lambda", "fig3", "chain:3")]
    posets += [random_poset(seed) for seed in range(10)]
    for poset, u, w in small_intervals(posets):
        p0 = AugmentedPoset(poset)
        report = mobius_main(poset, u, w)
        assert [eta for eta, _ in report.per_embedding] == embeddings(poset, u, w)
        for eta, c in report.per_embedding:
            assert c == contribution(p0, eta, w)


def test_rank_word(lam):
    assert rank_word(lam, parse_word(lam, "333")) == 6
    assert rank_word(lam, parse_word(lam, "11")) == 2
    assert rank_word(lam, ()) == 0


def rank_by_build(poset, w):
    """Reference rank: the longest chain of the built interval [empty, w]."""
    diagram = build_interval(poset, (), w)
    return diagram.ranks[diagram.nodes.index(tuple(w))]


def test_rank_word_matches_interval_build():
    cases = [(builtin_poset(name), 2 if name == "fig3" else 3)
             for name in ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")]
    cases += [(random_poset(seed, 6), 3) for seed in range(100)]
    checked = 0
    for poset, max_len in cases:
        for w in all_words(poset, max_len):
            assert rank_word(poset, w) == rank_by_build(poset, w), (poset, w)
            checked += 1
    assert checked == 8561


def test_homotopy_type(lam):
    report = homotopy_type(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    assert (report.sphere_count, report.dimension) == (5, 2)
    assert report.describe() == "wedge of 5 spheres, dim 2"
    # antichain: dimension |w| - |u| - 2
    a2 = builtin_poset("antichain:2")
    rep = homotopy_type(a2, parse_word(a2, "1"), parse_word(a2, "121"))
    assert rep.dimension == 0


def test_homotopy_type_builds_no_interval(lam, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("homotopy_type built an interval")

    for name in ("build_interval", "interval_covers"):
        monkeypatch.setattr(interval_module, name, refuse)
    report = homotopy_type(lam, parse_word(lam, "1"), (2,) * 13)
    assert report.describe() == "wedge of 28672 spheres, dim 23"
    assert (report.rank_w, report.rank_u) == (26, 1)


def test_homotopy_type_errors(lam):
    with pytest.raises(UnsupportedPosetError):
        homotopy_type(builtin_poset("chain:3"), (0,), (2, 2))
    with pytest.raises(DomainError):
        homotopy_type(lam, parse_word(lam, "3"), parse_word(lam, "3"))
    with pytest.raises(DomainError):
        homotopy_type(lam, parse_word(lam, "1"), parse_word(lam, "3"))  # gap 1
    with pytest.raises(DomainError):
        homotopy_type(lam, parse_word(lam, "2"), parse_word(lam, "11"))


def test_rank_le1_chain_purity(lam):
    # all maximal chains of an interval have the same length when rk(P) <= 1
    for u_txt, w_txt in [("", "333"), ("11", "333"), ("1", "233")]:
        chains = all_chains(MorseEngine(lam), parse_word(lam, u_txt), parse_word(lam, w_txt))
        lengths = {len(c.words) for c in chains.chains}
        assert len(lengths) == 1


def test_formula_oracle_random_sweep():
    import itertools

    for seed in range(25):
        poset = random_poset(seed, max_elements=4)
        for length in range(4):
            for w in itertools.product(range(poset.n), repeat=length):
                oracle = build_interval(poset, (), w).mobius_to_top()
                for u, mu in oracle.items():
                    assert mobius_main(poset, u, w).value == mu


def test_formula_table_matches_pointwise_formula():
    # every [u, w] with |w| <= 3 over the five built-ins (fig3 |w| <= 2) and
    # random posets 0-29: the table read from the diagram's node order has
    # exactly its nodes, each with the row-DP reference's value
    posets = [builtin_poset(name) for name in ("lambda", "lambda:3", "chain:3", "antichain:3")]
    posets += [random_poset(seed) for seed in range(30)]
    checked = 0
    for poset, max_w in [(p, 3) for p in posets] + [(builtin_poset("fig3"), 2)]:
        for w in all_words(poset, max_w):
            nodes = build_interval(poset, (), w).nodes
            table = mobius_main_below(poset, w, nodes)
            assert list(table) == nodes
            for u, value in table.items():
                assert _row_dp(poset, u, w) == value, (u, w)
            checked += len(table)
    assert checked == 29729


def test_formula_table_caps_and_checks(lam):
    w = parse_word(lam, "33333")
    table = mobius_main_below(lam, w, [(), (0,)])
    assert table[(0,)] == mobius_main(lam, (0,), w).value
    with pytest.raises(InputError):
        mobius_main_below(lam, (7,), [()])
    # exact ints inside, each value i64-checked: [∅, 3^60] holds mu(1^30, 3^60)
    big = (2,) * 60
    words = [(0,) * k for k in range(31)]
    with pytest.raises(IntegerOverflowError):
        mobius_main_below(lam, big, words)


def test_formula_checks_only_the_value_read(lam):
    # mu(1^30, 3^60) overflows i64 but mu(1^59, 3^60) does not: mobius_main
    # passes through the prefix columns and checks only u's value, while the
    # table checks every word it lists
    big = (2,) * 60
    assert mobius_main(lam, (0,) * 59, big).value == -119 == mobius_closed_form(59, 60)
    with pytest.raises(IntegerOverflowError):
        mobius_main_below(lam, big, [(0,) * k for k in range(60)])


@pytest.mark.parametrize(
    "words",
    [
        [(), (ZERO,), (ZERO, ZERO)],  # the adjoined zero spells no word
        [(0, 0)],  # before its parent prefix (0,)
        [(), (7,)],  # no element 7
        [(), (0, 0), (0,)],  # parent prefix listed after its child
    ],
)
def test_formula_table_rejects_bad_word_lists(lam, words):
    with pytest.raises(InputError):
        mobius_main_below(lam, parse_word(lam, "33"), words)


def _enumerated(poset, u, w):
    """The formula as a sum over enumerated embeddings: the reference for the DP."""
    p0 = AugmentedPoset(poset)
    return sum(contribution(p0, eta, w) for eta in embeddings(poset, u, w))


def _row_dp(poset, u, w):
    """The formula as a row DP over the positions of w, exact ints: row[k]
    sums the products over the prefixes of w placing u[:k].  The reference
    for the column DP that :func:`mobius_main` reads."""
    mu0, above = poset.mu0, poset.above
    row = [1] + [0] * len(u)
    for j, b in enumerate(w):
        skip = mu0(ZERO, b) + (j > 0 and w[j - 1] == b)
        for k in range(min(j + 1, len(u)), 0, -1):
            x = u[k - 1]
            row[k] = row[k] * skip + (row[k - 1] * mu0(x, b) if b in above[x] else 0)
        row[0] *= skip
    return row[len(u)]


def _words(n, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def _dp_posets():
    names = ("lambda", "lambda:3", "chain:3", "antichain:3", "fig3")
    return [builtin_poset(name) for name in names] + [random_poset(s) for s in range(50)]


def test_formula_dp_matches_enumeration_small():
    # every u, w with |u| <= |w| <= 3; fig3 (9 elements) stops at |w| <= 2
    for poset in _dp_posets():
        for w in _words(poset.n, 3 if poset.n <= 5 else 2):
            for u in _words(poset.n, len(w)):
                assert mobius_main(poset, u, w).value == _enumerated(poset, u, w), (u, w)


def test_formula_dp_matches_enumeration_random():
    rng = random.Random(20110726)
    for poset in _dp_posets():
        for _ in range(12):
            w = tuple(rng.randrange(poset.n) for _ in range(rng.randint(4, 8)))
            # a u below w half the time: lower kept letters within P0
            lowered = (rng.choice(poset.interval0(ZERO, b)) for b in w)
            u = tuple(x for x in lowered if x != ZERO)
            if rng.random() < 0.5:
                u = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, len(w))))
            assert mobius_main(poset, u, w).value == _enumerated(poset, u, w), (u, w)


def test_formula_terms_are_lazy(lam, monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("embeddings enumerated")

    monkeypatch.setattr(mobius_module, "iter_embeddings", no_enumeration)
    report = mobius_main(lam, (0,) * 9, (2,) * 18)
    assert report.value == tomie_T(2, 27).coeff(9) == -18670080
    with pytest.raises(AssertionError, match="embeddings enumerated"):
        list(report.per_embedding)


def test_formula_matches_row_dp_reference():
    # seeded pairs with |w| <= 16 over the five built-ins and random posets
    # 0-49, u below w half the time
    rng = random.Random(19)
    checked = 0
    for poset in _dp_posets():
        for _ in range(20):
            w = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, 16)))
            lowered = (rng.choice(poset.interval0(ZERO, b)) for b in w)
            u = tuple(x for x in lowered if x != ZERO)
            if rng.random() < 0.5:
                u = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, len(w))))
            assert mobius_main(poset, u, w).value == _row_dp(poset, u, w), (u, w)
            checked += is_leq_words(poset, u, w)
    assert checked > 500
