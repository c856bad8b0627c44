"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N: PASS" line on success; a failure shows
up as the usual pytest failure for that criterion.  Stated time budgets are
asserted with wall-clock checks.
"""

import time

from subword import (
    ZERO,
    build_interval,
    builtin_poset,
    chebyshev_T,
    chebyshev_T_closed,
    homotopy_type,
    mobius_bjorner,
    mobius_closed_form,
    mobius_forest,
    mobius_main,
    mobius_oracle,
    normal_embeddings_antichain,
    parse_word,
    rank_word,
    verify_chebyshev,
)
from subword import FinitePoset
from subword.morse import MorseEngine
from subword.verify import (
    all_chains,
    all_words,
    random_poset,
    run_inclusion_exclusion,
    run_lemmas,
    run_product_lemma,
    sweep,
)

LAM = builtin_poset("lambda")
FIG3 = builtin_poset("fig3")


def report(n, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {n}: PASS{suffix}")


def test_criterion_1_mu_11_333_three_methods():
    start = time.monotonic()
    u, w = parse_word(LAM, "11"), parse_word(LAM, "333")
    formula = mobius_main(LAM, u, w).value
    oracle = mobius_oracle(LAM, u, w)
    morse = MorseEngine(LAM).mobius_morse(u, w)
    assert formula == oracle == morse == 5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"mu(11,333)=5 by formula/oracle/morse in {elapsed:.2f}s")


def test_criterion_2_per_embedding_contributions():
    u, w = parse_word(LAM, "11"), parse_word(LAM, "333")
    report_obj = mobius_main(LAM, u, w)
    one = LAM.id_of("1")
    expected = {
        (one, one, ZERO): 2,
        (one, ZERO, one): 2,
        (ZERO, one, one): 1,
    }
    assert dict(report_obj.per_embedding) == expected
    assert MorseEngine(LAM).embedding_mus(u, w) == expected
    report(2, "contributions {110:2, 101:2, 011:1}, Morse per-embedding agrees")


def test_criterion_3_empty_to_33333():
    start = time.monotonic()
    w = parse_word(LAM, "33333")
    assert mobius_main(LAM, (), w).value == 16
    diagram = build_interval(LAM, (), w)
    assert diagram.mobius_to_top()[()] == 16
    assert diagram.edge_count() == 1904
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"mu(∅,33333)=16, 1904 edges in {elapsed:.2f}s")


def test_criterion_4_fig3_critical_chains():
    u, w = parse_word(FIG3, "2"), parse_word(FIG3, "29")
    engine = MorseEngine(FIG3)
    decs = engine.critical_chains(u, w)
    assert len(decs) == 4
    assert sorted(d.critical_dimension for d in decs) == [0, 0, 1, 1]
    d0_chains = {
        d.chain.words for d in decs if d.critical_dimension == 0
    }
    assert d0_chains == {
        tuple(parse_word(FIG3, t) for t in ("29", "25", "21", "2")),
        tuple(parse_word(FIG3, t) for t in ("29", "28", "23", "2")),
    }
    morse = sum(d.sign() for d in decs)
    assert morse == 0
    assert mobius_main(FIG3, u, w).value == 0
    assert mobius_oracle(FIG3, u, w) == 0
    report(4, "4 critical chains, dims (0,0,1,1), sum 0 = formula = oracle")


def test_criterion_5_oracle_equivalence_sweep():
    start = time.monotonic()
    mismatches = 0
    checks = 0
    # formula = oracle = morse, |w| <= 3
    for name in ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3"):
        poset = builtin_poset(name)
        engine = MorseEngine(poset)
        for w in all_words(poset, 3):
            diagram = build_interval(poset, (), w)
            oracle = diagram.mobius_to_top()
            morse = engine.mobius_morse_below(w, diagram.nodes)
            for u, mu in oracle.items():
                checks += 1
                if not mu == mobius_main(poset, u, w).value == morse[u]:
                    mismatches += 1
    # formula = oracle, |w| <= 4 over lambda
    for w in all_words(LAM, 4):
        oracle = build_interval(LAM, (), w).mobius_to_top()
        for u, mu in oracle.items():
            checks += 1
            if mobius_main(LAM, u, w).value != mu:
                mismatches += 1
    # formula = oracle over 200 seeded random posets, |w| <= 3
    for seed in range(200):
        poset = random_poset(seed, max_elements=5)
        for w in all_words(poset, 3):
            oracle = build_interval(poset, (), w).mobius_to_top()
            for u, mu in oracle.items():
                checks += 1
                if mobius_main(poset, u, w).value != mu:
                    mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 300.0
    report(5, f"{checks} intervals, 0 mismatches in {elapsed:.1f}s")


def test_criterion_6_bjorner_specialization():
    checks = 0
    for name in ("antichain:2", "antichain:3"):
        poset = builtin_poset(name)
        for w in all_words(poset, 6):
            for u in build_interval(poset, (), w).nodes:
                assert mobius_bjorner(poset, u, w) == mobius_main(poset, u, w).value
                checks += 1
    a2 = builtin_poset("antichain:2")
    u, w = parse_word(a2, "121"), parse_word(a2, "1122121")
    count, normal = normal_embeddings_antichain(a2, u, w)
    as_text = {
        "".join("0" if x == ZERO else a2.names[x] for x in eta) for eta in normal
    }
    assert count == 2 and as_text == {"0102100", "0102001"}
    assert mobius_bjorner(a2, u, w) == 2
    report(6, f"{checks} antichain intervals; worked case (121, 1122121) -> 2")


def test_criterion_7_forest_specialization():
    forest = FinitePoset(["1", "2", "3", "4", "5"], [(0, 1), (0, 2), (3, 4)])
    checks = 0
    for poset in (builtin_poset("chain:4"), forest):
        for w in all_words(poset, 4):
            oracle = build_interval(poset, (), w).mobius_to_top()
            for u, mu in oracle.items():
                assert mobius_forest(poset, u, w) == mobius_main(poset, u, w).value == mu
                checks += 1
    report(7, f"{checks} rooted-forest intervals, 0 mismatches")


def test_criterion_8_chebyshev():
    for j in range(9):
        for i in range(j + 1):
            assert verify_chebyshev(i, j, 2).equal
    for s in (1, 2, 3):
        for j in range(6):
            for i in range(j + 1):
                assert verify_chebyshev(i, j, s).equal
    for n in range(21):
        assert chebyshev_T(n) == chebyshev_T_closed(n)
    for j in range(1, 9):
        for i in range(j + 1):
            assert verify_chebyshev(i, j, 2).mu == mobius_closed_form(i, j)
    report(8, "grids s=2 j<=8 and s in {1,2,3} j<=5; closed forms agree")


def test_criterion_9_homotopy():
    for name in ("lambda", "antichain:2", "antichain:3"):
        poset = builtin_poset(name)
        engine = MorseEngine(poset)
        for w in all_words(poset, 3):
            rk_w = rank_word(poset, w)
            for u in build_interval(poset, (), w).nodes:
                if u == w:
                    continue
                rk_u = rank_word(poset, u)
                if rk_w - rk_u < 2:
                    continue
                context = all_chains(engine, u, w)
                lengths = {len(c.words) - 1 for c in context.chains}
                assert lengths == {rk_w - rk_u}
                for chain in context.chains:
                    for a, b in context.msis(chain):
                        assert a == b
                rep = homotopy_type(poset, u, w)
                assert rep.dimension == rk_w - rk_u - 2
                assert rep.sphere_count == abs(mobius_main(poset, u, w).value)
    for j in range(1, 4):
        for i in range(j + 1):
            if 2 * j - i < 2:
                continue
            rep = homotopy_type(LAM, (0,) * i, (2,) * j)
            assert rep.dimension == 2 * j - i - 2
    report(9, "chain purity, singleton MSIs, wedge dimensions (incl. 2j-i-2)")


def test_criterion_10_lemma_suite():
    posets = [("lambda", LAM), ("chain:3", builtin_poset("chain:3"))]
    lemmas = run_lemmas(sweep(posets, 2))
    assert lemmas.passed, lemmas.failures[:3]
    product = run_product_lemma(posets + [("fig3", FIG3)])
    assert product.passed, product.failures[:3]
    incexc = run_inclusion_exclusion(sweep(posets, 2))
    assert incexc.passed, incexc.failures[:3]
    total = lemmas.checks + product.checks + incexc.checks
    report(10, f"{total} lemma checks: descent/ascent, lex-decrease, "
               "product, inclusion-exclusion")
