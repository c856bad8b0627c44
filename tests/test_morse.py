import itertools
import random
import tracemalloc

import pytest

from subword import (
    AugmentedPoset,
    DomainError,
    FinitePoset,
    ResourceLimitError,
    ZERO,
    builtin_poset,
    build_interval,
    contribution,
    embeddings,
    mobius_main,
    parse_word,
    restrict,
)
from subword.morse import LabeledChain, MorseEngine, j_construction
from subword.verify import (
    _minimal_intervals,
    all_chains,
    all_words,
    random_poset,
    run_lemmas,
    run_morse_agreement,
    run_oracle_equivalence,
    sweep,
)
from subword.words import is_embedding, lower_covers, trusted_leq

CHAIN3 = builtin_poset("chain:3")
BUILTINS = ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")


def words(poset, *texts):
    return [parse_word(poset, t) for t in texts]


def reference_moves(eng, eta):
    """The cover moves of eta as (label, embedding, word), sorted by label
    key: each move of lower_covers, its embedding eta with slot j set to y,
    enumerated here so that no reference reads the engine's move record."""
    moves = [((j + 1, y), eta[:j] + (y,) + eta[j + 1 :], word)
             for j, y, word in lower_covers(eng.poset, eta)]
    return sorted(moves, key=lambda m: eng.label_key(m[0]))


def label_chain(eng, chain_words):
    """The maximal chain through chain_words (top first), labeled by eng's moves."""
    etas = [tuple(chain_words[0])]
    labels = []
    for v in chain_words[1:]:
        for label, eta, word in reference_moves(eng, etas[-1]):
            if word == v:
                etas.append(eta)
                labels.append(label)
                break
        else:
            raise ValueError(f"{v} is not covered by {restrict(etas[-1])}")
    return LabeledChain(eng.poset, tuple(chain_words), tuple(etas), tuple(labels))


def freeze(path):
    """A chain of the walk's live view, copied out of its stacks."""
    return LabeledChain(path.poset, tuple(path.words), tuple(path.embeddings), tuple(path.labels))


def walked(eng, w, u=None):
    """The chains of eng.walk(w, u), frozen."""
    return [freeze(path) for path, _ in eng.walk(w, u)]


def reference_chains(eng, w, u, decreasing):
    """Reference walk: saturated descending chains from w in PLO order; with
    decreasing, only those whose labels strictly decrease.

    With u given, only full chains down to u are yielded; with u None every
    proper descending prefix is yielded.  With u given and decreasing, a move
    is kept only if its frozen tail still lets the walk reach u: the slots
    after its position are u's tail and u's head lies below the slots up to it.
    """
    etas, words_, labels = [tuple(w)], [w], []

    def can_reach(eta, p):
        tail = restrict(eta[p:])
        k = len(u) - len(tail)
        return k >= 0 and u[k:] == tail and trusted_leq(eng.poset, u[:k], restrict(eta[:p]))

    def descend():
        if u is None and len(words_) > 1 or u is not None and words_[-1] == u:
            yield LabeledChain(eng.poset, tuple(words_), tuple(etas), tuple(labels))
            if u is not None:
                return
        last = eng.label_key(labels[-1]) if decreasing and labels else None
        for label, eta, v in reference_moves(eng, etas[-1]):
            if last is not None and eng.label_key(label) >= last:
                break
            if u is not None and not (
                can_reach(eta, label[0]) if decreasing else trusted_leq(eng.poset, u, v)
            ):
                continue
            etas.append(eta)
            words_.append(v)
            labels.append(label)
            yield from descend()
            etas.pop()
            words_.pop()
            labels.pop()

    yield from descend()


def L(poset, text):
    """Parse labels like "<1,1> <3,1> <2,0>"."""
    out = []
    for part in text.split():
        j, x = part.strip("<>").split(",")
        out.append((int(j), ZERO if x == "0" else poset.id_of(x)))
    return tuple(out)


# -- labeling ------------------------------------------------------------------


def test_label_chain_c(lam):
    chain = label_chain(MorseEngine(lam), words(lam, "333", "133", "131", "111", "11"))
    assert chain.labels == L(lam, "<1,1> <3,1> <2,1> <1,0>")
    assert chain.final_embedding == (ZERO, 0, 0)


def test_label_chain_d(lam):
    chain = label_chain(MorseEngine(lam), words(lam, "333", "332", "33", "31", "11"))
    assert chain.labels == L(lam, "<3,2> <3,0> <2,1> <1,1>")


def test_label_chain_cprime(lam):
    chain = label_chain(MorseEngine(lam), words(lam, "333", "313", "33", "13", "11"))
    assert chain.labels == L(lam, "<2,1> <2,0> <1,1> <3,1>")
    assert chain.embeddings[1] == parse_word(lam, "313")


def test_label_chain_single_cover():
    # deleting the minimal letter a from ab zeroes position 1
    chain = label_chain(MorseEngine(CHAIN3), words(CHAIN3, "12", "2"))
    assert chain.labels == L(CHAIN3, "<1,0>")


def test_label_chain_run_deletion():
    # deleting from the run [5,6] of a's zeroes the run's first slot
    chain = label_chain(MorseEngine(CHAIN3), words(CHAIN3, "111211333", "11121333"))
    assert chain.labels == ((5, ZERO),)


def test_label_chain_rejects_non_cover(lam):
    with pytest.raises(ValueError, match="is not covered by"):
        label_chain(MorseEngine(lam), words(lam, "333", "3"))


# -- PLO -----------------------------------------------------------------------


def test_plo_compare(lam):
    # the PLO orders the chains of an interval by their label-key sequences
    eng = MorseEngine(lam)
    c = label_chain(eng, words(lam, "333", "313", "33", "13", "11"))
    cprime = label_chain(eng, words(lam, "333", "133", "113", "111", "11"))
    d = label_chain(eng, words(lam, "333", "332", "33", "31", "11"))
    keys = [[eng.label_key(l) for l in chain.labels] for chain in (cprime, c, d)]
    assert keys[0] < keys[1] < keys[2]


def test_plo_zero_label_first(lam):
    # <1,0> sorts before <1,1>: l(0)=0
    eng = MorseEngine(lam)
    assert eng.label_key((1, ZERO)) == (1, 0) < eng.label_key((1, 0))


def test_plo_total_on_interval():
    # all_chains emits every interval's chains, those of the reference walk,
    # in strictly increasing PLO order
    posets = [builtin_poset(n) for n in BUILTINS] + [random_poset(s) for s in range(3)]
    checked = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, 2 if poset.n > 5 else 3):
            for u in build_interval(poset, (), w).nodes:
                chains = all_chains(eng, u, w).chains
                assert chains == list(reference_chains(eng, w, u, decreasing=False))
                keys = [tuple(map(eng.label_key, c.labels)) for c in chains]
                assert all(a < b for a, b in zip(keys, keys[1:]))
                checked += 1
    assert checked == 4057


# -- skipped intervals and MSIs ------------------------------------------------


def test_sis_of_chain_d(lam):
    eng = MorseEngine(lam)
    ctx = all_chains(eng, parse_word(lam, "11"), parse_word(lam, "333"))
    d = label_chain(eng, words(lam, "333", "332", "33", "31", "11"))
    sis = ctx.skipped_intervals(d)
    assert (1, 1) in sis  # {332}
    assert (1, 3) in sis  # {332, 33, 31}
    msis = ctx.msis(d)
    assert msis == [(1, 1), (2, 2), (3, 3)]
    dec = ctx.decomposition(d)
    assert dec.is_critical and dec.critical_dimension == 2


def test_plo_first_chain_has_no_sis(lam):
    eng = MorseEngine(lam)
    ctx = all_chains(eng, parse_word(lam, "11"), parse_word(lam, "333"))
    assert ctx.skipped_intervals(ctx.chains[0]) == []


def test_descent_example(lam):
    # 322 > 32 > 22 has the 1-descent {32}, beaten by 322 > 222 > 022
    eng = MorseEngine(lam)
    u, w = parse_word(lam, "22"), parse_word(lam, "322")
    ctx = all_chains(eng, u, w)
    chain = label_chain(eng, words(lam, "322", "32", "22"))
    assert chain.labels == L(lam, "<2,0> <1,2>")
    assert ctx.msis(chain) == [(1, 1)]
    earlier = label_chain(eng, words(lam, "322", "222", "22"))
    assert list(map(eng.label_key, earlier.labels)) < list(map(eng.label_key, chain.labels))


def test_descents_are_singleton_msis(lam):
    eng = MorseEngine(lam)
    for w_txt, u_txt in [("333", "11"), ("322", "2"), ("133", "")]:
        u, w = parse_word(lam, u_txt), parse_word(lam, w_txt)
        ctx = all_chains(eng, u, w)
        for chain in ctx.chains:
            sis = ctx.skipped_intervals(chain)
            lo, hi = chain.open_range()
            for k in range(lo, hi + 1):
                if chain.labels[k][0] < chain.labels[k - 1][0]:
                    assert (k, k) in sis


def test_no_msi_contains_an_ascent(lam):
    eng = MorseEngine(lam)
    for w_txt, u_txt in [("333", "11"), ("322", "2"), ("133", "")]:
        u, w = parse_word(lam, u_txt), parse_word(lam, w_txt)
        ctx = all_chains(eng, u, w)
        for chain in ctx.chains:
            for a, b in ctx.msis(chain):
                for k in range(a, b + 1):
                    assert chain.labels[k][0] <= chain.labels[k - 1][0]


def test_fast_si_test_matches_brute_force(lam, fig3):
    for poset, pairs in [
        (lam, [("333", "11"), ("322", "2"), ("233", "")]),
        (fig3, [("29", "2"), ("99", "1"), ("68", "")]),
    ]:
        eng = MorseEngine(poset)
        for w_txt, u_txt in pairs:
            u, w = parse_word(poset, u_txt), parse_word(poset, w_txt)
            ctx = all_chains(eng, u, w)
            for chain in ctx.chains:
                fast = eng.decomposition_direct(chain)
                assert ctx.msis(chain) == list(fast.msis)
                brute = ctx.decomposition(chain)
                assert brute.is_critical == fast.is_critical
                assert brute.j_intervals == fast.j_intervals


def lexmin_through(eng, w_eta, required):
    """Labels of the PLO-minimum maximal chain from w through the descending
    element list required (below w, down to the chain bottom): the full walk
    from w, taking at each step the first move that stays above the next
    required element."""
    labels = []
    eta = w_eta
    remaining = list(required)
    while remaining:
        target = remaining[0]
        if restrict(eta) == target:
            remaining.pop(0)
            continue
        label, eta = next(
            (label, nxt)
            for label, nxt, word in reference_moves(eng, eta)
            if trusted_leq(eng.poset, target, word)
        )
        labels.append(label)
    return tuple(labels)


def full_walk_is_si(eng, chain, interval):
    """Reference SI test: the PLO-minimum chain through C - I precedes C."""
    i, j = interval
    required = chain.words[1:i] + chain.words[j + 1 :]
    lexmin = lexmin_through(eng, chain.embeddings[0], required)
    return [eng.label_key(l) for l in lexmin] < [eng.label_key(l) for l in chain.labels]


def test_is_si_matches_full_walk():
    # every interval of every strictly decreasing chain from w, prefixes included
    posets = [builtin_poset(n) for n in BUILTINS] + [random_poset(s, 4) for s in range(12)]
    checked = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, 2 if poset.n > 5 else 3):
            for chain in walked(eng, w):
                lo, hi = chain.open_range()
                for i in range(lo, hi + 1):
                    for j in range(i, hi + 1):
                        expected = full_walk_is_si(eng, chain, (i, j))
                        assert eng.is_si(chain, (i, j)) == expected
                        checked += 1
    assert checked == 26764


def all_pairs_msis(eng, chain):
    lo, hi = chain.open_range()
    return _minimal_intervals(
        [(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1) if eng.is_si(chain, (i, j))]
    )


def two_pointer_msis(eng, chain):
    """Reference MSIs: the two-pointer scan over the whole chain.  The least
    skipped end f(i) never decreases with i, and (i, f(i)) is minimal exactly
    when f(i) < f(i+1)."""
    lo, hi = chain.open_range()
    ends = []
    j = lo
    for i in range(lo, hi + 1):
        j = max(j, i)
        while j <= hi and not eng.is_si(chain, (i, j)):
            j += 1
        ends.append(j)
    ends.append(hi + 1)
    return [(i, f) for i, f, g in zip(range(lo, hi + 1), ends, ends[1:]) if f < g]


def clip_and_minimise(msis, open_lo, open_hi):
    """Reference J-construction: take the first interval, clip the rest to
    start after it, keep the minimal remnants, repeat."""
    current = sorted(set(msis))
    js = []
    while current:
        j = current[0]
        js.append(j)
        clipped = [(max(lo, j[1] + 1), hi) for lo, hi in current[1:]]
        current = _minimal_intervals([(lo, hi) for lo, hi in clipped if lo <= hi])
    covered = set()
    for lo, hi in js:
        covered.update(range(lo, hi + 1))
    return tuple(js), covered == set(range(open_lo, open_hi + 1))


def per_prefix_morse_below(chains, prefix_msis, w, nodes):
    """Reference mu(., w) table: the J-construction of the clip-and-minimise
    loop on the MSIs of every prefix of the walk from w, given in walk order."""
    table = {}
    for chain, msis in zip(chains, prefix_msis):
        js, critical = clip_and_minimise(msis, *chain.open_range())
        if critical:
            bottom = chain.words[-1]
            table[bottom] = table.get(bottom, 0) + (-1) ** (len(js) - 1)
    for u in nodes:
        table.setdefault(u, 0)
    table[w] = 1
    return table


def test_two_pointer_msis_match_all_pairs_scan(lam, fig3):
    eng = MorseEngine(lam)
    w5, w6 = parse_word(lam, "33333"), parse_word(lam, "333333")
    chains = [(eng, c) for c in walked(eng, w5)]
    for u_txt in ("", "1"):
        bottom = parse_word(lam, u_txt)
        chains += [(eng, c) for c in walked(eng, w6, bottom)]
    # here a least SI (i, f(i)) can contain the one starting at i + 1
    for poset, max_w in ((CHAIN3, 3), (fig3, 2)):
        eng = MorseEngine(poset)
        chains += [(eng, c) for w in all_words(poset, max_w) for c in walked(eng, w)]
    for eng, chain in chains:
        expected = all_pairs_msis(eng, chain)
        assert two_pointer_msis(eng, chain) == expected
        assert list(eng.decomposition_direct(chain).msis) == expected
    assert len(chains) == 5652


def test_carried_scan_matches_per_prefix_references():
    # the carried MSI scan and the one-pass J-intervals give the tables and
    # MSIs of a fresh scan and the clip-and-minimise loop on every prefix
    posets = [builtin_poset(n) for n in BUILTINS] + [random_poset(s) for s in range(50)]
    prefixes = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, 2 if poset.n > 5 else 3):
            chains = walked(eng, w)
            reference = [two_pointer_msis(eng, chain) for chain in chains]
            assert [list(eng.decomposition_direct(chain).msis) for chain in chains] == reference
            nodes = build_interval(poset, (), w).nodes
            table = per_prefix_morse_below(chains, reference, w, nodes)
            assert list(eng.mobius_morse_below(w, nodes).items()) == list(table.items())
            prefixes += len(reference)
    assert prefixes == 70716


def minimal_interval_sets(n):
    """Every set of pairwise non-nested intervals of 1..n: strictly
    increasing left and right ends."""
    out = []

    def extend(acc, last_lo, last_hi):
        out.append(tuple(acc))
        for lo in range(last_lo + 1, n + 1):
            for hi in range(max(lo, last_hi + 1), n + 1):
                acc.append((lo, hi))
                extend(acc, lo, hi)
                acc.pop()

    extend([], 0, 0)
    return out


def test_j_construction_matches_clip_and_minimise():
    checked = 0
    for n in range(8):
        for msis in minimal_interval_sets(n):
            assert j_construction(msis, 1, n) == clip_and_minimise(msis, 1, n)
            checked += 1
    assert checked == 2055


def test_j_construction():
    # overlapping MSIs are clipped, non-minimal remnants dropped
    js, crit = j_construction([(1, 2), (2, 4)], 1, 4)
    assert js == ((1, 2), (3, 4)) and crit
    js, crit = j_construction([(1, 1), (2, 3)], 1, 4)
    assert js == ((1, 1), (2, 3)) and not crit
    js, crit = j_construction([], 1, 0)
    assert js == () and crit  # empty open chain
    # (2,3) clipped to (3,3) drops (3,4), whose remnant would contain it
    js, crit = j_construction([(1, 2), (2, 3), (3, 4)], 1, 4)
    assert js == ((1, 2), (3, 3)) and not crit


def unpruned_decreasing_chains(eng, w, u):
    """Reference walk: every strictly decreasing chain from w down to u, in
    PLO order, keeping each move whose word is still >= u."""
    out = []

    def descend(etas, words, labels):
        if words[-1] == u:
            out.append(LabeledChain(eng.poset, tuple(words), tuple(etas), tuple(labels)))
            return
        for label, eta, v in reference_moves(eng, etas[-1]):
            if labels and eng.label_key(label) >= eng.label_key(labels[-1]):
                break
            if trusted_leq(eng.poset, u, v):
                descend(etas + [eta], words + [v], labels + [label])

    descend([tuple(w)], [w], [])
    return out


def folded_critical_chains(eng, chains):
    """Reference critical chains among the chains of the unpruned walk of a
    proper interval, with each chain's MSI scan folded from scratch."""
    return [dec for chain in chains if (dec := eng.decomposition_direct(chain)).is_critical]


def test_pruned_walk_and_carried_scan_match_references():
    # the reach test drops only dead ends, the scans carried along the walk
    # give the decompositions of the per-chain fold, and the Morse sums equal
    # their signs, grouped by final embedding in PLO order
    posets = [builtin_poset(n) for n in BUILTINS] + [random_poset(s) for s in range(30)]
    intervals = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, 2 if poset.n > 5 else 3):
            for u in build_interval(poset, (), w).nodes:
                chains = unpruned_decreasing_chains(eng, w, u)
                assert walked(eng, w, u) == chains
                assert list(reference_chains(eng, w, u, decreasing=True)) == chains
                expected = folded_critical_chains(eng, chains) if u != w else []
                assert list(eng.critical_chains(u, w)) == expected
                by_embedding = {w: 1} if u == w else {}
                for dec in expected:
                    eta = dec.chain.final_embedding
                    by_embedding[eta] = by_embedding.get(eta, 0) + dec.sign()
                assert list(eng.embedding_mus(u, w).items()) == list(by_embedding.items())
                assert eng.mobius_morse(u, w) == sum(by_embedding.values())
                intervals += 1
    assert intervals == 29729


def test_walk_matches_the_reference_chains():
    # the one walk yields the reference walk's strictly decreasing prefixes in
    # the same order, each with the MSI scan of the per-chain fold
    posets = [(builtin_poset(n), 2 if n == "fig3" else 3) for n in BUILTINS]
    posets += [(random_poset(s), 3) for s in range(30)]
    prefixes = 0
    for poset, max_w in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, max_w):
            expected = list(reference_chains(eng, w, None, decreasing=True))
            got = []
            for path, scan in eng.walk(w):
                chain = freeze(path)
                assert eng.decomposition_direct(chain, scan) == eng.decomposition_direct(chain)
                got.append(chain)
            assert got == expected
            prefixes += len(got)
    assert prefixes == 42954


def test_walk_to_u_expands_no_dead_end(fig3, monkeypatch):
    # fig3 [2, 15 9^10]: no strictly decreasing chain reaches 2, yet the
    # decreasing prefixes from w multiply by about 7 per letter; the exact
    # reach test expands each embedding on the way once
    real, calls = MorseEngine.cover_moves, []

    def counted(self, eta):
        calls.append(eta)
        assert len(calls) <= 1000, "the walk to u expands dead ends"
        return real(self, eta)

    monkeypatch.setattr(MorseEngine, "cover_moves", counted)
    eng = MorseEngine(fig3)
    u, w = parse_word(fig3, "2"), parse_word(fig3, "15" + "9" * 10)
    assert list(eng.critical_chains(u, w, max_chains=1)) == []
    assert len(calls) == len(set(calls))


def permuted_poset(seed):
    """random_poset(seed, 6) with its ids shuffled by the same seed, so that
    its labels need not be id + 1, as random_poset's always are."""
    base = random_poset(seed, 6)
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    names = [""] * base.n
    for i, name in enumerate(base.names):
        names[perm[i]] = name
    return FinitePoset(names, [(perm[a], perm[b]) for a, b in base.covers])


def test_walk_to_u_expands_only_embeddings_on_its_chains(monkeypatch):
    # the reach test is exact: on every [u, w] with |w| <= 3 the walk yields
    # the unpruned reference chains and expands no embedding off them, also
    # on posets whose labels differ from ids + 1
    relabeled = [permuted_poset(seed) for seed in range(40)]
    relabeled = [
        p for p in relabeled
        if p.n >= 3 and max(p.ranks) <= 3 and p.labels != tuple(range(1, p.n + 1))
    ]
    posets = [FinitePoset(["c", "b", "a", "d"], [(2, 0), (2, 1), (1, 3)])]
    posets += [builtin_poset("chain:4")] + relabeled[:12]
    real, expanded = MorseEngine.cover_moves, []

    def counted(self, eta):
        expanded.append(eta)
        return real(self, eta)

    monkeypatch.setattr(MorseEngine, "cover_moves", counted)
    intervals = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for w in all_words(poset, 3):
            for u in build_interval(poset, (), w).nodes:
                expected = unpruned_decreasing_chains(eng, w, u)
                expanded.clear()
                got = walked(eng, w, u)
                assert got == expected, (poset.names, w, u)
                assert set(expanded) <= {w, *(eta for c in got for eta in c.embeddings)}
                intervals += 1
    assert intervals == 38168


def test_each_embedding_the_walk_enters_embeds_its_word_in_w():
    # the walk builds an entered move's embedding from its parent's by one
    # slot edit; on seeded words of length 3 to 6, with and without a bottom,
    # every embedding on every yielded chain must carry its word in w
    posets = [builtin_poset(n) for n in BUILTINS]
    posets += [random_poset(seed) for seed in range(20)]
    posets += [permuted_poset(seed) for seed in range(20)]
    rng, entered = random.Random(2011), 0
    for poset in posets:
        eng = MorseEngine(poset)
        for _ in range(3):
            w = tuple(rng.randrange(poset.n) for _ in range(rng.randint(3, 6)))
            for u in (None, ()):
                for path, _ in eng.walk(w, u):
                    for eta, word in zip(path.embeddings, path.words):
                        assert is_embedding(poset, eta, w) and restrict(eta) == word
                        entered += 1
    assert entered > 100_000, entered


def test_walk_to_u_expands_only_w_when_no_chain_reaches_u(fig3, monkeypatch):
    # fig3 [2, 15 9^30]: no move from w leads on to 2
    real, calls = MorseEngine.cover_moves, []
    monkeypatch.setattr(
        MorseEngine, "cover_moves", lambda self, eta: calls.append(eta) or real(self, eta)
    )
    u, w = parse_word(fig3, "2"), parse_word(fig3, "15" + "9" * 30)
    assert list(MorseEngine(fig3).critical_chains(u, w, max_chains=1)) == []
    assert calls == [w]


def reference_lower_covers(poset, eta):
    """The cover moves of eta, each spliced into eta and restricted: the
    construction lower_covers replaces, kept as its reference."""
    prev = ZERO
    for j, x in enumerate(eta):
        if x == ZERO:
            continue
        lower = poset.covers_below[x]
        for y in lower:
            yield j, y, restrict(eta[:j] + (y,) + eta[j + 1 :])
        if not lower and x != prev:
            yield j, ZERO, restrict(eta[:j] + (ZERO,) + eta[j + 1 :])
        prev = x


def test_lower_covers_match_the_spliced_reference():
    # every embedding of every u <= w with |w| <= 3: at each slot, ZERO or a
    # letter below w's; so ZERO slots, runs and deletions all occur
    posets = [builtin_poset(name) for name in BUILTINS]
    posets += [random_poset(seed) for seed in range(30)]
    posets += [permuted_poset(seed) for seed in range(30)]
    checked = 0
    for poset in posets:
        for w in all_words(poset, 3):
            slots = [(ZERO, *(x for x in range(poset.n) if poset.leq(x, b))) for b in w]
            for eta in itertools.product(*slots):
                assert list(lower_covers(poset, eta)) == list(reference_lower_covers(poset, eta))
                checked += 1
    assert checked > 100_000


@pytest.mark.parametrize("k", [6, 7, 8, 9])
def test_critical_chains_of_long_words_sum_to_the_formula(lam, k):
    u, w = parse_word(lam, "1"), parse_word(lam, "3" * k)
    total = sum(dec.sign() for dec in MorseEngine(lam).critical_chains(u, w))
    assert total == mobius_main(lam, u, w).value


def test_critical_chains_cap(lam):
    eng = MorseEngine(lam)
    u, w = parse_word(lam, "11"), parse_word(lam, "333")
    assert list(eng.critical_chains(u, w, max_chains=6)) == list(eng.critical_chains(u, w))
    with pytest.raises(ResourceLimitError, match="more than 5 strictly decreasing chains"):
        list(eng.critical_chains(u, w, max_chains=5))
    with pytest.raises(ResourceLimitError):
        eng.mobius_morse(u, w, max_chains=5)


def test_critical_chains_fig3(fig3):
    eng = MorseEngine(fig3)
    u, w = parse_word(fig3, "2"), parse_word(fig3, "29")
    decs = list(eng.critical_chains(u, w))
    assert len(decs) == 4
    dims = sorted(d.critical_dimension for d in decs)
    assert dims == [0, 0, 1, 1]
    d0 = {
        tuple(d.chain.words) for d in decs if d.critical_dimension == 0
    }
    assert d0 == {
        tuple(words(fig3, "29", "25", "21", "2")),
        tuple(words(fig3, "29", "28", "23", "2")),
    }
    assert sum(d.sign() for d in decs) == 0


def test_critical_chain_labels_strictly_decrease(lam, fig3):
    for poset, pairs in [
        (lam, [("333", "11"), ("333", "")]),
        (fig3, [("29", "2"), ("99", "")]),
    ]:
        eng = MorseEngine(poset)
        for w_txt, u_txt in pairs:
            u, w = parse_word(poset, u_txt), parse_word(poset, w_txt)
            decs = list(eng.critical_chains(u, w))
            for dec in decs:
                keys = [eng.label_key(l) for l in dec.chain.labels]
                assert keys == sorted(keys, reverse=True)
                assert len(set(keys)) == len(keys)
            plo = [tuple(map(eng.label_key, dec.chain.labels)) for dec in decs]
            assert all(a < b for a, b in zip(plo, plo[1:]))


def test_mobius_morse_values(lam, fig3):
    eng = MorseEngine(lam)
    assert eng.mobius_morse(parse_word(lam, "11"), parse_word(lam, "333")) == 5
    assert eng.mobius_morse((), parse_word(lam, "33333")) == 16
    u = parse_word(lam, "21")
    assert eng.mobius_morse(u, u) == 1
    assert eng.mobius_morse(parse_word(lam, "1"), parse_word(lam, "3")) == -1
    eng3 = MorseEngine(fig3)
    assert eng3.mobius_morse(parse_word(fig3, "2"), parse_word(fig3, "29")) == 0


def test_mobius_morse_below_matches_pointwise(fig3):
    eng = MorseEngine(fig3)
    w = parse_word(fig3, "29")
    table = eng.mobius_morse_below(w, build_interval(fig3, (), w).nodes)
    for u, value in table.items():
        assert eng.mobius_morse(u, w) == value
        assert mobius_main(fig3, u, w).value == value


def embedding_mu(eng, eta, w):
    """Morse contribution of the critical chains of [restrict(eta), w] ending at eta."""
    return eng.embedding_mus(restrict(eta), w).get(eta, 0)


def test_per_embedding_mu(lam, fig3):
    eng3 = MorseEngine(fig3)
    two = fig3.id_of("2")
    assert embedding_mu(eng3, (two, ZERO), parse_word(fig3, "29")) == 1
    w = parse_word(fig3, "29")
    assert embedding_mu(eng3, w, w) == 1
    eng = MorseEngine(lam)
    one = lam.id_of("1")
    assert embedding_mu(eng, (one, one, ZERO), parse_word(lam, "333")) == 2


def test_embeddings_share_one_critical_chain_walk(lam, monkeypatch):
    # lambda [1, 3^8]: its 8 embeddings' contributions come from one walk
    eng = MorseEngine(lam)
    walks = []
    real = MorseEngine.walk

    def counted(self, *args, **kwargs):
        walks.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(MorseEngine, "walk", counted)
    u, w = parse_word(lam, "1"), parse_word(lam, "3" * 8)
    by_embedding = eng.embedding_mus(u, w)
    assert sum(by_embedding.get(eta, 0) for eta in embeddings(lam, u, w)) == -576
    assert len(walks) == 1
    assert set(by_embedding) <= set(embeddings(lam, u, w))
    assert eng.embedding_mus(w, w) == {w: 1}


def test_morse_sums_hold_no_chain_list(lam, monkeypatch):
    # lambda [1, 3^10] has 2,816 critical chains; the sums of their signs
    # neither list them nor keep them
    def unused(*args, **kwargs):
        raise AssertionError("a Morse sum built the critical-chain list")

    monkeypatch.setattr(MorseEngine, "critical_chains", unused)
    u, w = parse_word(lam, "1"), parse_word(lam, "3" * 10)
    expected = mobius_main(lam, u, w).value
    embedding_total = lambda eng, u, w: sum(eng.embedding_mus(u, w).values())
    for total in (MorseEngine.mobius_morse, embedding_total):
        tracemalloc.start()
        try:
            assert total(MorseEngine(lam), u, w) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


def test_critical_chains_decompose_only_critical_chains(lam, monkeypatch):
    # lambda [1, 3^10]: of the 5,120 strictly decreasing chains the walk
    # yields, only the 2,816 critical ones are copied and decomposed
    real, calls = MorseEngine.decomposition_direct, []
    monkeypatch.setattr(
        MorseEngine, "decomposition_direct",
        lambda self, *args: calls.append(args) or real(self, *args),
    )
    u, w = parse_word(lam, "1"), parse_word(lam, "3" * 10)
    decs = list(MorseEngine(lam).critical_chains(u, w))
    assert len(decs) == len(calls) == 2816
    assert all(dec.is_critical for dec in decs)
    assert sum(1 for _ in MorseEngine(lam).walk(w, u)) == 5120


def test_morse_sums_are_zero_off_intervals(lam):
    eng = MorseEngine(lam)
    u, w = parse_word(lam, "2"), parse_word(lam, "11")
    assert eng.embedding_mus(u, w) == {}
    assert eng.mobius_morse(u, w) == 0
    assert eng.embedding_mus(w, w) == {w: 1}
    assert eng.mobius_morse(w, w) == 1


def test_mobius_morse_below_enforces_its_chain_cap(lam):
    eng = MorseEngine(lam)
    w = parse_word(lam, "333")
    nodes = build_interval(lam, (), w).nodes
    table = eng.mobius_morse_below(w, nodes)
    prefixes = len(walked(eng, w))
    assert eng.mobius_morse_below(w, nodes, max_chains=prefixes) == table
    with pytest.raises(ResourceLimitError, match=f"more than {prefixes - 1} strictly"):
        eng.mobius_morse_below(w, nodes, max_chains=prefixes - 1)


def test_per_embedding_mu_matches_contribution(lam, fig3):
    for poset, pairs in [
        (lam, [("333", "11"), ("332", "2"), ("333", "")]),
        (fig3, [("29", "2"), ("99", "5")]),
    ]:
        eng = MorseEngine(poset)
        p0 = AugmentedPoset(poset)
        for w_txt, u_txt in pairs:
            u, w = parse_word(poset, u_txt), parse_word(poset, w_txt)
            total = 0
            for eta in embeddings(poset, u, w):
                value = embedding_mu(eng, eta, w)
                assert value == contribution(p0, eta, w)
                total += value
            assert total == eng.mobius_morse(u, w)


def classify_single_position_msi(eng, chain):
    """Predict whether C(w, eta) is an MSI when eta differs from w in one slot.

    The track of that slot j is a maximal chain of the P0 interval
    [eta(j), w(j)], which is the one-letter interval [(eta(j)), (w(j))] of
    subword order, or [empty, (w(j))] when eta(j) is 0: same covers, same
    label keys, all at position 1.  Its SIs are read there by the exact test.
    """
    w = chain.words[0]
    eta = chain.final_embedding
    diff = [j for j in range(len(w)) if eta[j] != w[j]]
    if len(diff) != 1:
        raise DomainError("endpoints must differ in exactly one position")
    j = diff[0]
    track = [restrict((e[j],)) for e in chain.embeddings]
    if len(track) <= 2:
        return False  # empty open interval cannot be an MSI
    above = eng.poset.above
    left = w[j - 1] if eta[j] == ZERO and j > 0 else None
    rightmost = left is None or w[j] not in above[left]
    if not rightmost and any(x in above[left] for (x,) in track[1:-1]):
        return False
    one_letter = label_chain(eng, track)
    lo, hi = full = one_letter.open_range()
    sis = [
        (i, k)
        for i in range(lo, hi + 1)
        for k in range(i, hi + 1)
        if eng.is_si(one_letter, (i, k))
    ]
    return sis == [full] if rightmost else all(si == full for si in sis)


def test_classify_single_position_msi():
    # prediction agrees with brute force on every single-position chain of
    # every [u, w] with |w| <= 2 (|w| <= 3 when |P| <= 3)
    posets = [builtin_poset(n) for n in ("lambda", "lambda:3", "fig3", "chain:3", "antichain:3")]
    checked = 0
    for poset in posets + [random_poset(s) for s in range(20)]:
        eng = MorseEngine(poset)
        for w in all_words(poset, 3 if poset.n <= 3 else 2):
            for u in build_interval(poset, (), w).nodes:
                ctx = all_chains(eng, u, w)
                for chain in ctx.chains:
                    diff = [
                        j
                        for j in range(len(w))
                        if chain.embeddings[0][j] != chain.final_embedding[j]
                    ]
                    if len(diff) != 1:
                        continue
                    lo, hi = chain.open_range()
                    brute = ctx.msis(chain) == [(lo, hi)] if hi >= lo else False
                    assert classify_single_position_msi(eng, chain) == brute
                    checked += 1
    assert checked == 2525


def p0_maximal_chains(poset, a, b):
    """All maximal chains of the P0 interval [a, b], top-to-bottom: a walker
    over P0 itself, independent of the word-level cover moves."""
    p0 = AugmentedPoset(poset)
    out = []

    def descend(x, acc):
        if x == a:
            out.append(tuple(acc))
            return
        for y in p0.covered_by(x):
            if p0.leq(a, y):
                acc.append(y)
                descend(y, acc)
                acc.pop()

    descend(b, [b])
    return out


def p0_skipped_intervals(poset, chain0):
    """Brute-force SIs of a maximal chain of a P0 interval under its PLO."""
    label = poset.labels + (0,)  # label(ZERO) = 0 at index ZERO = -1
    keyed = sorted(
        p0_maximal_chains(poset, chain0[-1], chain0[0]),
        key=lambda c: tuple(label[x] for x in c[1:]),
    )
    earlier = [frozenset(c) for c in keyed[: keyed.index(chain0)]]
    hi = len(chain0) - 2
    return [
        (i, k)
        for i in range(1, hi + 1)
        for k in range(i, hi + 1)
        if any(frozenset(chain0[:i]) | frozenset(chain0[k + 1 :]) <= s for s in earlier)
    ]


def test_one_letter_intervals_have_the_p0_skipped_intervals():
    # [x, y] in P0 is the interval [(x), (y)] of words ([empty, (y)] for x = 0)
    names = ("lambda", "lambda:3", "lambda:4", "fig3", "chain:3", "chain:4", "antichain:3")
    posets = [builtin_poset(n) for n in names] + [random_poset(s, 6) for s in range(200)]
    checked = 0
    for poset in posets:
        eng = MorseEngine(poset)
        for y in range(poset.n):
            for x in [ZERO] + [x for x in range(poset.n) if x != y and y in poset.above[x]]:
                for chain0 in p0_maximal_chains(poset, x, y):
                    track = [restrict((z,)) for z in chain0]
                    ctx = all_chains(eng, track[-1], track[0])
                    chain = label_chain(eng, track)
                    assert ctx.skipped_intervals(chain) == p0_skipped_intervals(
                        poset, chain0
                    )
                    checked += 1
    assert checked == 1345


def test_morse_agreement_small_sweep():
    for name in ("lambda", "chain:3", "antichain:3"):
        poset = builtin_poset(name)
        eng = MorseEngine(poset)
        for length in range(3):
            for w in itertools.product(range(poset.n), repeat=length):
                diagram = build_interval(poset, (), w)
                assert eng.mobius_morse_below(w, diagram.nodes) == diagram.mobius_to_top()


def test_labels_that_differ_from_ids():
    # every built-in and seeded random poset labels its ids in order (label
    # = id + 1); here covers go from higher ids to lower ones, so the engine's
    # label keys, the PLO and the diagrams' node order read other labels
    poset = FinitePoset(["c", "b", "a", "d"], [(2, 0), (2, 1), (1, 3)])
    assert poset.labels == (2, 3, 1, 4)
    named = [("relabeled", poset)]
    for result, checks in [
        (run_oracle_equivalence(sweep(named, 3)), 1321),
        (run_morse_agreement(sweep(named, 3)), 1321),
        (run_lemmas(sweep(named, 2)), 816),
    ]:
        assert result.passed and result.checks == checks, result.failures[:1]


def test_critical_chains_are_empty_off_intervals(lam):
    eng = MorseEngine(lam)
    assert list(eng.critical_chains(parse_word(lam, "2"), parse_word(lam, "11"))) == []
    assert list(eng.critical_chains(parse_word(lam, "3"), parse_word(lam, "3"))) == []
