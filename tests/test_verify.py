import hashlib
import json
from pathlib import Path

import pytest

import subword.verify as verify
from subword import InputError
from subword.morse import MorseEngine
from subword.verify import ChainContext
from subword.verify import (
    SuiteResult,
    all_words,
    resolve_posets,
    run_chebyshev,
    run_inclusion_exclusion,
    run_lemmas,
    run_morse_agreement,
    run_oracle_equivalence,
    run_all,
    run_product_lemma,
    run_specializations,
    sweep,
)

VERIFY_COUNTS = Path(__file__).resolve().parents[1] / "perfbench" / "verify_counts.json"


def test_resolve_posets():
    named = resolve_posets("lambda,chain:3")
    assert [nm for nm, _ in named] == ["lambda", "chain:3"]
    rand = resolve_posets("random:3")
    assert len(rand) == 3
    assert rand[0][0] == "random:seed=0"
    with pytest.raises(InputError):
        resolve_posets("random:x")


def test_all_words(lam):
    out = list(all_words(lam, 2))
    assert len(out) == 1 + 3 + 9
    assert out[0] == ()


def test_suites_pass_at_small_scale(lam):
    posets = [("lambda", lam)]
    for result in [
        run_oracle_equivalence(sweep(posets, 2)),
        run_morse_agreement(sweep(posets, 2)),
        run_specializations(sweep(resolve_posets("antichain:2,chain:3"), 2)),
        run_chebyshev(max_j=3),
        run_lemmas(sweep(posets, 2)),
        run_product_lemma(posets),
        run_inclusion_exclusion(sweep(posets, 2)),
    ]:
        assert result.passed, result.failures[:3]
        assert result.checks > 0


def test_run_all_check_counts_are_pinned():
    # the per-suite counts `subword verify --posets P --max-w M` prints
    specs = json.loads(VERIFY_COUNTS.read_text(encoding="utf-8"))
    assert len(specs) == 12
    for spec in specs:
        results = run_all(spec["posets"], spec["max_w"])
        assert {r.name: r.checks for r in results} == spec["checks"], spec["posets"]
        assert all(r.passed for r in results), spec["posets"]


def test_injected_fault_is_named(lam, monkeypatch):
    # a flipped sign must surface as a counterexample naming the interval
    real = verify.mobius_main_below

    def flipped(*args, **kwargs):
        return {u: -value if value else 1 for u, value in real(*args, **kwargs).items()}

    monkeypatch.setattr(verify, "mobius_main_below", flipped)
    result = run_oracle_equivalence(sweep([("lambda", lam)], 1))
    assert result.checks == 9
    assert result.failures == [
        'lambda [∅, ∅]: formula -1 != oracle 1',
        'lambda [∅, 1]: formula 1 != oracle -1',
        'lambda [1, 1]: formula -1 != oracle 1',
        'lambda [∅, 2]: formula 1 != oracle -1',
        'lambda [2, 2]: formula -1 != oracle 1',
        'lambda [∅, 3]: formula -1 != oracle 1',
        'lambda [1, 3]: formula 1 != oracle -1',
        'lambda [2, 3]: formula 1 != oracle -1',
        'lambda [3, 3]: formula -1 != oracle 1',
    ]


def test_injected_morse_fault_is_named(lam, monkeypatch):
    # a Morse table off by one on one-letter bottoms; the failures below were
    # recorded before the suite read the formula from a shared table
    real = MorseEngine.mobius_morse_below

    def off_by_one(self, w, *caps):
        return {u: mu + 1 if len(u) == 1 else mu for u, mu in real(self, w, *caps).items()}

    monkeypatch.setattr(MorseEngine, "mobius_morse_below", off_by_one)
    result = run_morse_agreement(sweep([("lambda", lam)], 2))
    assert result.checks == 64
    assert result.failures == [
        'lambda [1, 1]: formula 1 != morse 2',
        'lambda [2, 2]: formula 1 != morse 2',
        'lambda [1, 3]: formula -1 != morse 0',
        'lambda [2, 3]: formula -1 != morse 0',
        'lambda [3, 3]: formula 1 != morse 2',
        'lambda [1, 11]: formula -1 != morse 0',
        'lambda [2, 12]: formula -1 != morse 0',
        'lambda [1, 12]: formula -1 != morse 0',
        'lambda [3, 13]: formula -1 != morse 0',
        'lambda [1, 13]: formula 2 != morse 3',
        'lambda [2, 13]: formula 1 != morse 2',
        'lambda [1, 21]: formula -1 != morse 0',
        'lambda [2, 21]: formula -1 != morse 0',
        'lambda [2, 22]: formula -1 != morse 0',
        'lambda [3, 23]: formula -1 != morse 0',
        'lambda [1, 23]: formula 1 != morse 2',
        'lambda [2, 23]: formula 2 != morse 3',
        'lambda [1, 31]: formula 2 != morse 3',
        'lambda [3, 31]: formula -1 != morse 0',
        'lambda [2, 31]: formula 1 != morse 2',
        'lambda [2, 32]: formula 2 != morse 3',
        'lambda [3, 32]: formula -1 != morse 0',
        'lambda [1, 32]: formula 1 != morse 2',
        'lambda [3, 33]: formula 3 != morse 4',
        'lambda [1, 33]: formula -3 != morse -2',
        'lambda [2, 33]: formula -3 != morse -2',
    ]


def test_run_all_shares_one_build_and_one_table_per_w(monkeypatch):
    # each [∅, w] is built once, and its formula table read by three suites
    calls = {"build_interval": 0, "mobius_main_below": 0}
    for name in calls:
        real = getattr(verify, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    results = run_all("lambda,chain:2", 2)
    assert all(r.passed for r in results)
    assert calls == {"build_interval": 13 + 7, "mobius_main_below": 13 + 7}


def test_run_all_merges_failures_in_poset_order(monkeypatch):
    # one call per poset; each suite's failures keep the order of the posets
    real = verify.mobius_main_below

    def flipped(*args, **kwargs):
        return {u: -value if value else 1 for u, value in real(*args, **kwargs).items()}

    monkeypatch.setattr(verify, "mobius_main_below", flipped)
    oracle = run_all("chain:1,antichain:1", 1)[0]
    assert oracle.checks == 6
    assert oracle.failures == [
        'chain:1 [∅, ∅]: formula -1 != oracle 1',
        'chain:1 [∅, 1]: formula 1 != oracle -1',
        'chain:1 [1, 1]: formula -1 != oracle 1',
        'antichain:1 [∅, ∅]: formula -1 != oracle 1',
        'antichain:1 [∅, 1]: formula 1 != oracle -1',
        'antichain:1 [1, 1]: formula -1 != oracle 1',
    ]


LEMMA_FAULT_FIRST_FAILURES = [
    'lambda [∅, 3] chain 3 > 2 > ∅  [<1,2>, <1,0>]: MSI sets differ (brute (), fast ((1, 1),))',
    'lambda [∅, 3] chain 3 > 2 > ∅  [<1,2>, <1,0>]: critical by the fast path but not by brute force',
    'lambda [∅, 12] chain 12 > 1 > ∅  [<2,0>, <1,0>]: MSI sets differ (brute (), fast ((1, 1),))',
    'lambda [∅, 12] chain 12 > 1 > ∅  [<2,0>, <1,0>]: 1-descent at 1 is not a singleton MSI',
    'lambda [∅, 12] chain 12 > 1 > ∅  [<2,0>, <1,0>]: critical by the fast path but not by brute force',
    'lambda [∅, 13] chain 13 > 3 > 2 > ∅  [<1,0>, <2,2>, <2,0>]: MSI sets differ (brute ((1, 2),), fast ((2, 2),))',
    'lambda [∅, 13] chain 13 > 3 > 2 > ∅  [<1,0>, <2,2>, <2,0>]: MSI (1,2) contains an ascent',
    'lambda [∅, 13] critical chain 13 > 3 > 2 > ∅  [<1,0>, <2,2>, <2,0>]: labels are not strictly decreasing',
    'lambda [∅, 13] chain 13 > 3 > 2 > ∅  [<1,0>, <2,2>, <2,0>]: critical by brute force but missed by the fast path',
    'lambda [∅, 13] chain 13 > 11 > 1 > ∅  [<2,1>, <1,0>, <2,0>]: MSI sets differ (brute ((1, 2),), fast ((1, 1),))',
    'lambda [∅, 13] chain 13 > 11 > 1 > ∅  [<2,1>, <1,0>, <2,0>]: 1-descent at 1 is not a singleton MSI',
    'lambda [∅, 13] chain 13 > 11 > 1 > ∅  [<2,1>, <1,0>, <2,0>]: MSI (1,2) contains an ascent',
    'lambda [∅, 13] critical chain 13 > 11 > 1 > ∅  [<2,1>, <1,0>, <2,0>]: labels are not strictly decreasing',
    'lambda [∅, 13] chain 13 > 11 > 1 > ∅  [<2,1>, <1,0>, <2,0>]: critical by brute force but missed by the fast path',
    'lambda [∅, 13] chain 13 > 12 > 2 > ∅  [<2,2>, <1,0>, <2,0>]: MSI sets differ (brute ((1, 2),), fast ((1, 1),))',
    'lambda [∅, 13] chain 13 > 12 > 2 > ∅  [<2,2>, <1,0>, <2,0>]: 1-descent at 1 is not a singleton MSI',
    'lambda [∅, 13] chain 13 > 12 > 2 > ∅  [<2,2>, <1,0>, <2,0>]: MSI (1,2) contains an ascent',
    'lambda [∅, 13] critical chain 13 > 12 > 2 > ∅  [<2,2>, <1,0>, <2,0>]: labels are not strictly decreasing',
    'lambda [∅, 13] chain 13 > 12 > 2 > ∅  [<2,2>, <1,0>, <2,0>]: critical by brute force but missed by the fast path',
    'lambda [∅, 13] chain 13 > 12 > 1 > ∅  [<2,2>, <2,0>, <1,0>]: MSI sets differ (brute ((1, 2),), fast ((1, 1), (2, 2)))',
    'lambda [∅, 13] chain 13 > 12 > 1 > ∅  [<2,2>, <2,0>, <1,0>]: 1-descent at 2 is not a singleton MSI',
]


def test_injected_lemma_fault_is_named(lam, monkeypatch):
    # brute-force SIs that lose every singleton: each kind of lemma
    # counterexample names its interval, chain and loop position
    real = ChainContext.skipped_intervals

    def no_singletons(self, chain):
        return [(i, j) for i, j in real(self, chain) if i != j]

    monkeypatch.setattr(ChainContext, "skipped_intervals", no_singletons)
    result = run_lemmas(sweep([("lambda", lam)], 2))
    assert result.checks == 462 and len(result.failures) == 263
    assert result.failures[:21] == LEMMA_FAULT_FIRST_FAILURES
    digest = hashlib.sha256("\n".join(result.failures).encode()).hexdigest()
    assert digest == "2ec8dab990c96b13c915cebad49837366f8d8f056df7bc3a02378c21c491042b"


def test_suite_result_record():
    r = SuiteResult("demo")
    r.record(True, "nope")
    r.record(False, "bad case")
    assert r.checks == 2 and r.failures == ["bad case"] and not r.passed


def test_sweep_keeps_no_move_memo_of_shorter_words(fig3):
    # the move memo is keyed by embeddings of length |w|, so a sweep that has
    # moved to a longer w holds none of the shorter words' entries
    seen = 0
    for interval in sweep([("fig3", fig3)], 2):
        run_morse_agreement([interval])
        lengths = {len(eta) for eta in interval.engine._move_cache}
        assert lengths <= {len(interval.w)}, interval.w
        seen += len(interval.engine._move_cache)
    assert seen > 0


def test_run_all_searches_each_interval_once(monkeypatch):
    # the Morse table reads the sweep's node list instead of its own search
    import subword.interval as interval

    real, calls = interval.interval_covers, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(interval, "interval_covers", counted)
    results = run_all("lambda,chain:2", 2)
    assert all(r.passed for r in results)
    assert len(calls) == 13 + 7


def test_run_all_builds_only_the_tables_it_reads(monkeypatch):
    # past --max-w only the lemma and inclusion-exclusion suites run, and
    # neither reads a formula table
    real, calls = verify.mobius_main_below, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "mobius_main_below", counted)
    results = run_all("lambda", 1, lemma_max_w=3)
    assert {r.name: r.checks for r in results}["lemma-suite"] == 14804
    assert calls == [(), (0,), (1,), (2,)]
