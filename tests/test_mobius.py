import itertools

import pytest

from subword import (
    AugmentedPoset,
    DomainError,
    FinitePoset,
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
    mobius_embedding_subposet,
    mobius_forest,
    mobius_main,
    mobius_oracle,
    normal_embeddings_antichain,
    parse_word,
    rank_word,
)
from subword.poset import random_poset


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
    assert report.value == 0 and not report.comparable and not report.per_embedding


def test_mobius_report_json(lam):
    import json

    report = mobius_main(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    data = json.loads(report.to_json())
    assert data["value"] == 5 and data["method"] == "formula"
    assert {e["embedding"]: e["contribution"] for e in data["per_embedding"]} == {
        "110": 2,
        "101": 2,
        "011": 1,
    }


def test_mobius_oracle_examples(lam):
    assert mobius_oracle(lam, parse_word(lam, "11"), parse_word(lam, "333")) == 5
    assert mobius_oracle(lam, parse_word(lam, "1"), parse_word(lam, "33")) == -3
    u = parse_word(lam, "31")
    assert mobius_oracle(lam, u, u) == 1


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
    assert forest.is_rooted_forest()
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


def test_homotopy_type(lam):
    report = homotopy_type(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    assert (report.sphere_count, report.dimension) == (5, 2)
    assert report.describe() == "wedge of 5 spheres, dim 2"
    # antichain: dimension |w| - |u| - 2
    a2 = builtin_poset("antichain:2")
    rep = homotopy_type(a2, parse_word(a2, "1"), parse_word(a2, "121"))
    assert rep.dimension == 0


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
        d = build_interval(lam, parse_word(lam, u_txt), parse_word(lam, w_txt))
        lengths = {len(c) for c in d.maximal_chains()}
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
