import itertools
import random
import tracemalloc

import pytest

from subword import (
    ZERO,
    AugmentedPoset,
    FinitePoset,
    InputError,
    IntegerOverflowError,
    builtin_poset,
    load_poset,
    mobius_hat_chain_count,
    mobius_main,
)
from subword.specializations import is_rooted_forest
from subword.verify import random_poset
from test_morse import permuted_poset

BUILTINS = ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")


def ground_posets():
    """The five built-ins and random posets of seeds 0-49."""
    return [builtin_poset(name) for name in BUILTINS] + [random_poset(s) for s in range(50)]


def brute_mu0(poset):
    """mu of P0 at every pair a <= b, by the unmemoized recursion over all of
    P0, with the order taken from a transitive closure of the covers."""
    n = poset.n
    leq = {(a, a) for a in range(n)} | set(poset.covers)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if (i, k) in leq and (k, j) in leq:
                    leq.add((i, j))
    elems = [ZERO] + list(range(n))

    def le(a, b):
        return a == ZERO or (a, b) in leq

    def mu(a, b):
        if a == b:
            return 1
        return -sum(mu(a, z) for z in elems if z != b and le(a, z) and le(z, b))

    return {(a, b): mu(a, b) for a in elems for b in elems if le(a, b)}


def test_mu0_memo_matches_brute_force():
    for poset in ground_posets():
        p0 = AugmentedPoset(poset)
        for (a, b), expect in brute_mu0(poset).items():
            assert poset.mu0(a, b) == expect
            assert p0.mobius0(a, b) == expect
            assert p0.interval(a, b) == [
                z for z in p0.elements() if p0.leq(a, z) and p0.leq(z, b)
            ]


def test_mu0_matches_brute_force_at_every_pair_of_p0():
    # every (a, b) of P0, comparable or not, on 7-element posets and on the
    # same posets with ids that are not a linear extension; mu0 memoizes only
    # the pair asked, so each read here makes its own pass over [a, b]
    incomparable = 0
    for seed in range(100):
        for poset in (random_poset(seed, 7), permuted_poset(seed)):
            expect = brute_mu0(poset)
            elems = [ZERO, *range(poset.n)]
            for a, b in itertools.product(elems, elems):
                assert poset.mu0(a, b) == expect.get((a, b), 0), (seed, poset, a, b)
                incomparable += (a, b) not in expect
    assert incomparable >= 2000


def layered(layers):
    """Layers of 3 elements, ids layer by layer, each element of a layer
    covered by every element of the next."""
    n = 3 * layers
    covers = [(a, b) for a in range(n - 3) for b in range(3 * (a // 3 + 1), 3 * (a // 3 + 2))]
    return FinitePoset([str(i + 1) for i in range(n)], covers)


def test_mu0_at_the_i64_boundary():
    # mu0(0, x) = -(-2)^k for x on layer k, so layer 62 reads -2^62 and
    # layer 63 would read 2^63, one past the signed 64-bit range
    p = layered(63)
    assert mobius_main(p, (), (p.n - 3,)).value == -(2**62)
    p = layered(64)
    with pytest.raises(IntegerOverflowError, match=r"^mobius0\(-1,189\) overflowed"):
        mobius_main(p, (), (p.n - 3,))


def min_id_linear_extension(poset):
    """Repeatedly take the smallest-id element whose lower covers are all taken."""
    remaining_lower = {x: set(poset.covers_below[x]) for x in range(poset.n)}
    p0 = AugmentedPoset(poset)
    taken = []
    available = {x for x, low in remaining_lower.items() if not low}
    while available:
        x = min(available)
        available.remove(x)
        taken.append(x)
        for b in p0.covers_of(x):
            remaining_lower[b].discard(x)
            if not remaining_lower[b]:
                available.add(b)
    assert len(taken) == poset.n
    return taken


def shuffled(poset, seed):
    """The same poset with its ids permuted, so id order is no longer a
    linear extension."""
    perm = list(range(poset.n))
    random.Random(seed).shuffle(perm)
    names = [None] * poset.n
    for x in range(poset.n):
        names[perm[x]] = poset.names[x]
    return FinitePoset(names, [(perm[a], perm[b]) for a, b in poset.covers])


def test_default_labeling_takes_smallest_id_first():
    base = ground_posets()
    for poset in base + [shuffled(p, seed) for p in base for seed in range(3)]:
        order = min_id_linear_extension(poset)
        assert poset.labels == tuple(order.index(x) + 1 for x in range(poset.n))


def test_leq_lambda(lam):
    one, two, three = 0, 1, 2
    assert lam.leq(one, three)
    assert lam.leq(two, three)
    assert not lam.leq(one, two)
    assert not lam.leq(three, one)
    for x in range(lam.n):
        assert lam.leq(x, x)


def test_unknown_element_rejected(lam):
    with pytest.raises(InputError):
        lam.leq(0, 7)


def test_cycle_rejected():
    with pytest.raises(InputError) as info:
        FinitePoset(["a", "b"], [(0, 1), (1, 0)])
    assert str(info.value) == "cover relation contains a cycle"


def test_non_reduced_covers_rejected():
    # 0<1<2 plus the implied pair (0,2)
    with pytest.raises(InputError) as info:
        FinitePoset(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert str(info.value) == (
        "cover (a,c) is implied by a longer path; cover set is not transitively reduced"
    )


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        FinitePoset(["a", "a"], [])


def test_self_loop_rejected():
    with pytest.raises(InputError):
        FinitePoset(["a"], [(0, 0)])


def test_builtins():
    chain = builtin_poset("chain:4")
    assert chain.n == 4 and chain.leq(0, 3)
    anti = builtin_poset("antichain:3")
    assert not anti.covers and anti.n == 3
    lam3 = builtin_poset("lambda:3")
    assert lam3.n == 4 and all(lam3.leq(i, 3) for i in range(3))
    fig3 = builtin_poset("fig3")
    assert fig3.n == 9
    assert AugmentedPoset(fig3).covers_of(fig3.id_of("1")) == [
        fig3.id_of("5"),
        fig3.id_of("6"),
    ]
    with pytest.raises(InputError):
        builtin_poset("pentagon")
    with pytest.raises(InputError):
        builtin_poset("chain:x")
    assert builtin_poset("lambda:1").n == 2
    assert builtin_poset("chain:0").n == 0 and builtin_poset("antichain:0").n == 0
    for name in ("lambda:0", "lambda:-2", "chain:-3", "antichain:-1"):
        with pytest.raises(InputError, match="size must be at least"):
            builtin_poset(name)


def test_json_round_trip(fig3):
    again = FinitePoset.from_json(fig3.to_json())
    assert again == fig3
    with pytest.raises(InputError):
        FinitePoset.from_json("{bad json")
    with pytest.raises(InputError):
        FinitePoset.from_json('{"elements": ["a"]}')


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"elements": "abc", "covers": [["a", "b"]]}', "must be arrays"),
        ('{"elements": ["a", "b"], "covers": {"a": "b"}}', "must be arrays"),
        ('{"elements": ["a", "b"], "covers": "ab"}', "must be arrays"),
        ('{"elements": ["a", "b"], "covers": ["ab"]}', "2-element array"),
        ('{"elements": ["a", "b"], "covers": [["a", "b", "b"]]}', "2-element array"),
        ('{"elements": ["a", "b"], "covers": [{"a": 0, "b": 1}]}', "2-element array"),
        ('[["a", "b"]]', ""),  # not an object
        ('{"elements": [["a"], null, true], "covers": [[["a"], null]]}', "must be strings"),
        ('{"elements": [1, 2], "covers": [[1, 2]]}', "must be strings"),
        ('{"elements": ["1", "2"], "covers": [[1, "2"]]}', "must be strings"),
    ],
)
def test_json_of_the_wrong_shape_is_an_input_error(text, reason):
    with pytest.raises(InputError, match=f"^bad poset JSON: .*{reason}"):
        FinitePoset.from_json(text)


def test_cli_rejects_string_elements_and_covers(tmp_path, capsys):
    from subword.cli import main

    path = tmp_path / "p.json"
    path.write_text('{"elements": "abc", "covers": ["ab"]}')
    assert main(["mobius", "--poset", str(path), "--u", "a", "--w", "b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad poset JSON: elements and covers must be arrays\n"


def test_load_poset_file(tmp_path, lam):
    path = tmp_path / "p.json"
    path.write_text(lam.to_json())
    assert load_poset(str(path)) == lam
    with pytest.raises(InputError):
        load_poset("no-such-file.json")


def test_mobius0_lambda(lam):
    p0 = AugmentedPoset(lam)
    one, two, three = 0, 1, 2
    # over {0,1,2,3}: mu(0,0)=1, mu(0,1)=mu(0,2)=-1, mu(0,3)=-(1-1-1)=1
    assert p0.mobius0(ZERO, three) == 1
    assert p0.mobius0(one, three) == -1
    assert p0.mobius0(ZERO, one) == -1
    for x in [ZERO, one, two, three]:
        assert p0.mobius0(x, x) == 1


def test_mobius0_fig3(fig3):
    p0 = AugmentedPoset(fig3)
    assert p0.mobius0(ZERO, fig3.id_of("9")) == 1


def test_mobius0_domain_error(lam):
    p0 = AugmentedPoset(lam)
    with pytest.raises(Exception):
        p0.mobius0(2, 0)


def test_mobius0_row_sums():
    for seed in range(30):
        poset = random_poset(seed)
        p0 = AugmentedPoset(poset)
        for a in p0.elements():
            for b in p0.elements():
                if not p0.leq(a, b):
                    continue
                total = sum(
                    p0.mobius0(a, z) for z in p0.interval(a, b)
                )
                assert total == (1 if a == b else 0)


def test_augmented_structure(lam):
    p0 = AugmentedPoset(lam)
    assert p0.covered_by(0) == [ZERO]
    assert p0.covered_by(2) == [0, 1]
    assert p0.covers_of(ZERO) == [0, 1]
    assert p0.leq(ZERO, 2) and not p0.leq(2, ZERO)


def test_natural_labeling(lam, fig3):
    assert lam.labels == (1, 2, 3)
    for poset in (lam, fig3):
        ell = poset.labels
        assert sorted(ell) == list(range(1, poset.n + 1))
        for a in range(poset.n):
            for b in range(poset.n):
                if a != b and poset.leq(a, b):
                    assert ell[a] < ell[b]


def test_labels_and_ranks_come_from_construction(monkeypatch):
    # one linear extension per poset: builds and engines read it
    from subword import MorseEngine, build_interval, parse_word

    poset = builtin_poset("fig3")
    real, calls = FinitePoset._topo_order, []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(FinitePoset, "_topo_order", counted)
    for _ in range(3):
        for w in ("9", "59", "99"):
            build_interval(poset, (), parse_word(poset, w))
        MorseEngine(poset)
        assert max(poset.ranks) == 2
    assert calls == []


def test_a_wide_antichain_keeps_no_construction_scratch():
    # the sets of upper and lower covers per element are read only while the
    # tables are built; kept for the poset's life, they made antichain:20000
    # retain 15.6 MiB (tracemalloc, CPython 3.11), where its tables take 7.0
    names = [str(i + 1) for i in range(20000)]
    tracemalloc.start()
    try:
        poset = FinitePoset(names, [])
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert poset.labels == tuple(range(1, 20001)) and poset.ranks == (0,) * 20000
    assert retained <= 12 * 2**20, retained


def test_ranks(lam):
    assert lam.ranks == (0, 0, 1)
    assert builtin_poset("antichain:4").ranks == (0, 0, 0, 0)
    assert builtin_poset("chain:3").ranks == (0, 1, 2)


def test_rooted_forest_detection(lam):
    assert not is_rooted_forest(lam)  # 3 covers both 1 and 2
    assert is_rooted_forest(builtin_poset("chain:4"))
    assert is_rooted_forest(builtin_poset("antichain:3"))


def test_hat_chain_count_small():
    assert mobius_hat_chain_count([], lambda a, b: a == b) == -1
    assert mobius_hat_chain_count([1], lambda a, b: a == b) == 0
    assert mobius_hat_chain_count([1, 2], lambda a, b: a == b) == 1


def test_hat_chain_count_matches_recursion():
    for seed in range(40):
        poset = random_poset(seed, max_elements=6)
        p0 = AugmentedPoset(poset)
        for a in p0.elements():
            for b in p0.elements():
                if a == b or not p0.leq(a, b):
                    continue
                open_interval = [z for z in p0.interval(a, b) if z not in (a, b)]
                assert (
                    mobius_hat_chain_count(open_interval, p0.leq)
                    == p0.mobius0(a, b)
                )


def test_hat_inclusion_exclusion():
    # mu(Q-hat) = mu(U-hat) + mu(V-hat) - mu((U cap V)-hat) whenever U, V are
    # upper order ideals with U union V = Q
    for seed in range(40):
        poset = random_poset(seed, max_elements=6)
        elems = list(range(poset.n))
        whole = mobius_hat_chain_count(elems, poset.leq)
        for r in range(poset.n + 1):
            for seeds in itertools.combinations(elems, r):
                upper = [x for x in elems if any(poset.leq(s, x) for s in seeds)]
                rest = [x for x in elems if x not in upper]
                v_ideal = [
                    x for x in elems if any(poset.leq(s, x) for s in rest)
                ]
                both = [x for x in upper if x in v_ideal]
                assert whole == (
                    mobius_hat_chain_count(upper, poset.leq)
                    + mobius_hat_chain_count(v_ideal, poset.leq)
                    - mobius_hat_chain_count(both, poset.leq)
                )


def test_random_poset_is_valid_and_deterministic():
    for seed in range(50):
        p1 = random_poset(seed)
        p2 = random_poset(seed)
        assert p1 == p2
        assert 1 <= p1.n <= 5
