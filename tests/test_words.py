import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subword import (
    DomainError,
    FinitePoset,
    InputError,
    IntervalDiagram,
    ResourceLimitError,
    ZERO,
    build_interval,
    builtin_poset,
    embeddings,
    format_embedding,
    format_word,
    is_leq_words,
    parse_word,
    restrict,
    runs,
)
from subword.morse import MorseEngine
from subword.verify import all_chains, all_words, random_poset

CHAIN3 = builtin_poset("chain:3")


def test_parse_and_format(lam):
    assert parse_word(lam, "333") == (2, 2, 2)
    assert parse_word(lam, "3,3,3") == (2, 2, 2)
    assert parse_word(lam, "") == ()
    assert parse_word(lam, "-") == ()
    assert format_word(lam, ()) == "∅"
    assert format_word(lam, (0, 2)) == "13"
    with pytest.raises(InputError):
        parse_word(lam, "14")


def test_parse_multichar_names():
    poset = builtin_poset("chain:12")
    assert parse_word(poset, "10,2,3") == (9, 1, 2)
    assert format_word(poset, (9, 1, 2)) == "10,2,3"


def test_format_word_round_trips():
    # every word |w| <= 3 over the default built-ins, small random posets and
    # a poset with two-character names
    posets = [builtin_poset(n) for n in ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")]
    checked = 0
    for poset in posets + [random_poset(s) for s in range(10)] + [builtin_poset("chain:12")]:
        for w in all_words(poset, 3):
            assert parse_word(poset, format_word(poset, w)) == w
            checked += 1
    assert checked == 3496


@pytest.mark.parametrize("name", ["", "-", "∅", "a,b", " a", "a ", "\tb"])
def test_names_that_words_cannot_spell_are_rejected(name):
    # for elements "a,b" and "c", format_word gave "a,b,c", which parse_word rejects
    with pytest.raises(InputError, match="cannot be written in a word"):
        FinitePoset([name, "c"], [])


def test_is_leq_words_chain():
    # compositions under a chain ground order: 22 <= 312
    chain = builtin_poset("chain:3")
    assert is_leq_words(chain, parse_word(chain, "22"), parse_word(chain, "312"))
    assert not is_leq_words(chain, parse_word(chain, "33"), parse_word(chain, "312"))


def test_is_leq_words_lambda(lam):
    assert is_leq_words(lam, (), parse_word(lam, "12321"))
    assert not is_leq_words(lam, parse_word(lam, "1"), parse_word(lam, "2"))
    assert is_leq_words(lam, parse_word(lam, "11"), parse_word(lam, "333"))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_leq_iff_embedding_exists(data):
    lam = builtin_poset("lambda")
    u = tuple(data.draw(st.lists(st.integers(0, 2), max_size=3)))
    w = tuple(data.draw(st.lists(st.integers(0, 2), max_size=4)))
    assert is_leq_words(lam, u, w) == bool(embeddings(lam, u, w))


def test_embeddings_examples(lam):
    out = embeddings(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    assert [format_embedding(lam, e) for e in out] == ["110", "101", "011"]
    assert embeddings(lam, (), parse_word(lam, "33333")) == [(ZERO,) * 5]
    for e in out:
        assert restrict(e) == (0, 0)


def test_embedding_count_binomial(lam):
    for i in range(5):
        for j in range(i, 6):
            count = len(embeddings(lam, (0,) * i, (2,) * j))
            assert count == math.comb(j, i)


def reference_embeddings(poset, u, w):
    """Embeddings of u in w from every support, in itertools' lexicographic order."""
    out = []
    for support in itertools.combinations(range(len(w)), len(u)):
        if all(w[i] in poset.above[x] for i, x in zip(support, u)):
            eta = [ZERO] * len(w)
            for i, x in zip(support, u):
                eta[i] = x
            out.append(tuple(eta))
    return out


def test_embeddings_match_the_combinations_reference():
    rng = random.Random(7)
    posets = [builtin_poset(n) for n in ("lambda", "lambda:3", "fig3", "chain:3")]
    posets += [random_poset(s) for s in range(30)]
    nonempty = 0
    for poset in posets:
        for _ in range(40):
            w = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, 7)))
            u = tuple(rng.randrange(poset.n) for _ in range(rng.randint(0, len(w))))
            got = embeddings(poset, u, w)
            assert got == reference_embeddings(poset, u, w)
            nonempty += bool(got)
    assert nonempty == 929


def rightmost(poset, u_txt, w_txt):
    """The last embedding in the lexicographic order of supports."""
    return embeddings(poset, parse_word(poset, u_txt), parse_word(poset, w_txt))[-1]


def test_rightmost_embedding(lam):
    # the last embedding sits every letter as far right as it can go
    assert format_embedding(lam, rightmost(lam, "1132", "2132333")) == "0010132"
    assert rightmost(lam, "123", "123") == parse_word(lam, "123")
    assert format_embedding(lam, rightmost(lam, "11", "333")) == "011"
    assert embeddings(lam, parse_word(lam, "1"), parse_word(lam, "2")) == []


def test_rightmost_is_positionwise_maximal(lam):
    for u_txt, w_txt in [("11", "333"), ("1", "131"), ("13", "3133")]:
        rho = rightmost(lam, u_txt, w_txt)
        rho_support = [j for j, x in enumerate(rho) if x != ZERO]
        for eta in embeddings(lam, parse_word(lam, u_txt), parse_word(lam, w_txt)):
            support = [j for j, x in enumerate(eta) if x != ZERO]
            assert all(s <= r for s, r in zip(support, rho_support))


def test_runs():
    # aaabaaccc with a=1, b=2, c=3
    w = parse_word(CHAIN3, "111211333")
    assert runs(w) == [(0, 1, 3), (1, 4, 4), (0, 5, 6), (2, 7, 9)]
    assert runs(()) == []
    assert runs(parse_word(CHAIN3, "123")) == [(0, 1, 1), (1, 2, 2), (2, 3, 3)]


def test_build_interval_counts(lam):
    d = build_interval(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    assert d.node_count() == 24
    d5 = build_interval(lam, (), parse_word(lam, "33333"))
    assert d5.edge_count() == 1904
    single = build_interval(lam, parse_word(lam, "13"), parse_word(lam, "13"))
    assert single.node_count() == 1 and single.edge_count() == 0


def test_build_interval_nodes_unique_and_closed(lam):
    d = build_interval(lam, parse_word(lam, "1"), parse_word(lam, "313"))
    assert len(set(d.nodes)) == len(d.nodes)
    for v in d.nodes:
        assert is_leq_words(lam, d.bottom, v) and is_leq_words(lam, v, d.top)
    # closure: anything between two nodes is a node
    for v in d.nodes:
        for z in build_interval(lam, v, d.top).nodes:
            assert z in d.index


def test_build_interval_covers_are_covers(lam):
    d = build_interval(lam, (), parse_word(lam, "133"))
    for a, b in d.edges:
        va, vb = d.nodes[a], d.nodes[b]
        assert is_leq_words(lam, va, vb) and va != vb
        between = [
            z
            for z in d.nodes
            if z not in (va, vb)
            and is_leq_words(lam, va, z)
            and is_leq_words(lam, z, vb)
        ]
        assert not between


def test_build_interval_errors(lam):
    with pytest.raises(DomainError):
        build_interval(lam, parse_word(lam, "2"), parse_word(lam, "11"))
    with pytest.raises(ResourceLimitError):
        build_interval(lam, (), parse_word(lam, "333"), max_nodes=3)
    with pytest.raises(ResourceLimitError):
        build_interval(lam, (), (2,) * 13)


def test_maximal_chains(lam):
    u, w = parse_word(lam, "11"), parse_word(lam, "333")
    eng = MorseEngine(lam)
    for chain in all_chains(eng, u, w).chains:
        assert chain.words[0] == w and chain.words[-1] == u
    with pytest.raises(ResourceLimitError):
        all_chains(eng, u, w, max_chains=2)


def test_mobius_passes_agree(lam):
    d = build_interval(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    down = d.mobius_bottom_to()
    up = d.mobius_to_top()
    assert down[d.top] == up[d.bottom] == 5


def test_export_json_round_trip(lam):
    count = 0
    for poset, max_w in ((lam, 3), (builtin_poset("fig3"), 2)):
        for w in all_words(poset, max_w):
            for u in build_interval(poset, (), w).nodes:
                d = build_interval(poset, u, w)
                again = IntervalDiagram.from_json(poset, d.export_json())
                assert again == d and again.export_json() == d.export_json(), (u, w)
                count += 1
    assert count == 1412
    d = build_interval(lam, parse_word(lam, "11"), parse_word(lam, "333"))
    data = json.loads(d.export_json())
    assert set(data) == {"bottom", "top", "nodes", "edges", "ranks"}
    with pytest.raises(InputError):
        IntervalDiagram.from_json(lam, "{}")


@pytest.mark.parametrize(
    "change",
    [
        {"edges": [[0, 2]]},  # edge index past the node list
        {"edges": [[-1, 1]]},  # negative edge index
        {"edges": [[0, 1, 1]]},  # edge that is not a pair
        {"ranks": [0]},  # fewer ranks than nodes
        {"ranks": [0, 1, 2]},  # more ranks than nodes
        {"top": "33"},  # top that is not a node
        {"nodes": [1, "3"]},  # node that is not a string
        {"bottom": 1},  # bottom that is not a string
        {"top": None},  # top that is not a string
        {"edges": [[0.7, 1]]},  # edge index that is not an integer
        {"edges": [[0, True]]},  # edge index that is a boolean
        {"ranks": ["0", 1]},  # rank that is not an integer
        {"edges": [[1, 0]]},  # edge down the node order
        {"edges": [[0, 0], [0, 1]]},  # self-loop
        {"edges": [[0, 1], [1, 0]]},  # 2-cycle
        {"edges": [[0, 1], [0, 1]]},  # repeated edge
        {"bottom": "3", "top": "1"},  # bottom above top
        {"nodes": ["1", "2", "3"], "edges": [[0, 2]], "ranks": [0, 0, 1]},  # stray node
        {"top": "33", "nodes": ["1", "33"]},  # middle nodes missing: a false cover
        {"ranks": [7, 7]},  # ranks that are not the interval's
        {"bottom": "9"},  # bottom with an unknown element name
    ],
)
def test_from_json_rejects_inconsistent_diagram(lam, change):
    data = {"bottom": "1", "top": "3", "nodes": ["1", "3"], "edges": [[0, 1]], "ranks": [0, 1]}
    assert IntervalDiagram.from_json(lam, json.dumps(data)).edges == ((0, 1),)
    with pytest.raises(InputError, match="bad interval JSON"):
        IntervalDiagram.from_json(lam, json.dumps(dict(data, **change)))


def test_export_dot(lam):
    single = build_interval(lam, parse_word(lam, "3"), parse_word(lam, "3"))
    dot = single.export_dot()
    assert dot.startswith("digraph") and "->" not in dot
    d = build_interval(lam, parse_word(lam, "1"), parse_word(lam, "31"))
    dot = d.export_dot()
    # edges point cover -> covered
    i31 = d.index[parse_word(lam, "31")]
    i3 = d.index[parse_word(lam, "3")]
    assert f"n{i31} -> n{i3};" in dot
    with pytest.raises(InputError):
        d.export("svg")


def test_export_dot_escapes_labels():
    poset = FinitePoset(['a"b', "c\\d"], [])
    dot = build_interval(poset, (), (0, 1)).export_dot()
    assert '  n3 [label="a\\"b,c\\\\d"];' in dot.splitlines()


def test_up_sets_match_subword_order(lam):
    d = build_interval(lam, parse_word(lam, "1"), parse_word(lam, "333"))
    up = d.up_sets()
    for i, a in enumerate(d.nodes):
        assert up[i] == {j for j, b in enumerate(d.nodes) if is_leq_words(lam, a, b)}


def test_ranks_in_diagram(lam):
    d = build_interval(lam, (), parse_word(lam, "33"))
    assert d.ranks[d.index[()]] == 0
    assert d.ranks[d.index[parse_word(lam, "33")]] == 4
