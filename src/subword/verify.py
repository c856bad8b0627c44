"""Cross-method verification suites: oracle equivalence, specializations,
Morse agreement, Chebyshev coefficients and structural lemma checks, with the
brute-force references they compare against.

Each suite returns a :class:`SuiteResult`; failures carry a printable
counterexample so callers can name the offending instance; the suites build
its text only when the check fails.

:func:`sweep` yields one :class:`Interval` per (poset, w): the one [empty, w]
diagram, the one formula table (:func:`mobius.mobius_main_below`) where a
suite reads it, and a Morse engine shared by the words of one length.  The
interval suites each check the records they are given, so :func:`run_all`
passes every record of a poset's sweep to each suite in turn, or none where w
is past that suite's bound, and the record goes with its w.  The per-record
results are merged suite by suite, in the suites' order.  The caps bound the
builds and the Morse walks, so when both would trip, the first interval of the
sweep to reach one names it.

The references live here rather than beside the routes they check: the
validating view of P0 (:class:`AugmentedPoset`), seeded random posets, the
chain-count Mobius value, the embedding subposet, and the skipped intervals
of a chain by comparison with every PLO-earlier chain (:class:`ChainContext`).
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .chebyshev import chebyshev_T, chebyshev_T_closed, verify_chebyshev
from .errors import DomainError, InputError, ResourceLimitError, check_i64
from .interval import IntervalDiagram, build_interval
from .mobius import mobius_main, mobius_main_below
from .morse import (
    IndexInterval,
    Label,
    LabeledChain,
    MorseEngine,
    MsiDecomposition,
    j_construction,
)
from .poset import DEFAULT_POSET_SPEC, ZERO, FinitePoset, builtin_poset
from .specializations import is_antichain, is_rooted_forest, mobius_bjorner, mobius_forest
from .words import (
    DEFAULT_MAX_CHAINS,
    DEFAULT_MAX_NODES,
    Embedding,
    Word,
    check_interval,
    check_word,
    format_word,
    is_embedding,
    restrict,
    trusted_leq,
)


class SuiteResult:
    """One suite's check count and the counterexamples of its failed checks."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, counterexample: str | Callable[[], str]) -> None:
        """Count a check; on failure keep its counterexample, called if callable."""
        self.checks += 1
        if not ok:
            self.failures.append(counterexample() if callable(counterexample) else counterexample)


class Interval(NamedTuple):
    """One step of a sweep: [empty, w] over one poset, with mu(u, w) for each
    node u by the formula alone, in node order (None past the sweep's
    ``tables_max_w``)."""

    name: str
    poset: FinitePoset
    engine: MorseEngine
    w: Word
    diagram: IntervalDiagram
    formula: dict[Word, int] | None


def sweep(
    posets: Iterable[tuple[str, FinitePoset]],
    max_w: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    tables_max_w: int | None = None,
) -> Iterator[Interval]:
    """One :class:`Interval` per poset and word w with |w| <= max_w, shortest
    first, with a formula table where |w| <= tables_max_w (default max_w).

    The records of one word length share a Morse engine: its move memo is
    keyed by embeddings of length |w|, so none of it serves a longer w.
    """
    tables_max_w = max_w if tables_max_w is None else tables_max_w
    for name, poset in posets:
        for length, words in itertools.groupby(all_words(poset, max_w), key=len):
            engine = MorseEngine(poset)
            for w in words:
                diagram = build_interval(poset, (), w, max_nodes=max_nodes)
                formula = (
                    mobius_main_below(poset, w, diagram.nodes) if length <= tables_max_w else None
                )
                yield Interval(name, poset, engine, w, diagram, formula)


def resolve_posets(spec: str) -> list[tuple[str, FinitePoset]]:
    """Expand a comma-separated poset spec; random:N yields N seeded posets."""
    out: list[tuple[str, FinitePoset]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        head, _, arg = part.partition(":")
        if head == "random":
            try:
                count = int(arg)
            except ValueError as exc:
                raise InputError(f"bad poset spec {part!r}") from exc
            if count < 0:
                raise InputError(f"bad poset spec {part!r}: negative count")
            out.extend((f"random:seed={s}", random_poset(s)) for s in range(count))
        else:
            out.append((part, builtin_poset(part)))
    if not out:
        raise InputError(f"poset spec {spec!r} names no poset")
    return out


def all_words(poset: FinitePoset, max_len: int) -> Iterator[Word]:
    for length in range(max_len + 1):
        yield from itertools.product(range(poset.n), repeat=length)


def _pair_text(name: str, poset: FinitePoset, u: Word, w: Word) -> str:
    return f"{name} [{format_word(poset, u)}, {format_word(poset, w)}]"


def run_oracle_equivalence(intervals: Iterable[Interval]) -> SuiteResult:
    """formula = oracle on every [u, w] of the given [empty, w]."""
    result = SuiteResult("oracle-equivalence")
    for name, poset, _, w, diagram, formula in intervals:
        oracle = diagram.mobius_to_top()
        for (u, mu), got in zip(oracle.items(), formula.values()):
            result.record(
                got == mu,
                lambda: f"{_pair_text(name, poset, u, w)}: formula {got} != oracle {mu}",
            )
    return result


def run_morse_agreement(
    intervals: Iterable[Interval], max_chains: int = DEFAULT_MAX_CHAINS
) -> SuiteResult:
    """Morse critical-chain sum = formula on every [u, w] of the given [empty, w]."""
    result = SuiteResult("morse-agreement")
    for name, poset, engine, w, diagram, formula in intervals:
        morse = engine.mobius_morse_below(w, diagram.nodes, max_chains)
        for u, mu in morse.items():
            got = formula.get(u, 0)  # the formula's 0 off [empty, w]
            result.record(
                got == mu,
                lambda: f"{_pair_text(name, poset, u, w)}: formula {got} != morse {mu}",
            )
    return result


def run_specializations(intervals: Iterable[Interval]) -> SuiteResult:
    """Antichain and rooted-forest formulas agree with the main formula."""
    result = SuiteResult("specialization-coherence")
    for name, poset, _, w, _, formula in intervals:
        antichain = is_antichain(poset)
        forest = is_rooted_forest(poset)
        if not (antichain or forest):
            continue
        for u, expect in formula.items():
            if antichain:
                got = mobius_bjorner(poset, u, w)
                result.record(
                    got == expect,
                    lambda: f"{_pair_text(name, poset, u, w)}: antichain {got} != {expect}",
                )
            if forest:
                got = mobius_forest(poset, u, w)
                result.record(
                    got == expect,
                    lambda: f"{_pair_text(name, poset, u, w)}: forest {got} != {expect}",
                )
    return result


def run_chebyshev(max_j: int = 5) -> SuiteResult:
    """Coefficient identities for the generalized Chebyshev family, s = 1, 2, 3."""
    result = SuiteResult("chebyshev")
    for s in (1, 2, 3):
        for j in range(max_j + 1):
            for i in range(j + 1):
                check = verify_chebyshev(i, j, s)
                result.record(
                    check.equal,
                    lambda: f"s={s} (i,j)=({i},{j}): mu {check.mu} != coeff {check.coeff}",
                )
    for n in range(11):
        result.record(
            chebyshev_T(n) == chebyshev_T_closed(n),
            lambda: f"T_{n}: recurrence and closed form differ",
        )
    return result


def run_lemmas(intervals: Iterable[Interval], max_chains: int = DEFAULT_MAX_CHAINS) -> SuiteResult:
    """Structural checks on critical chains and skipped intervals.

    Per interval (small scale, brute force): critical chains carry strictly
    decreasing label keys, the fast skipped-interval test matches the brute
    chain comparison, a 1-descent is always a singleton MSI, and no MSI
    contains an ascent.
    """
    result = SuiteResult("lemma-suite")
    for name, poset, engine, w, diagram, _ in intervals:
        for u in diagram.nodes:
            if u == w:
                continue
            where = lambda: _pair_text(name, poset, u, w)
            context = all_chains(engine, u, w, max_chains)
            critical = dict.fromkeys(
                dec.chain for dec in engine.critical_chains(u, w, max_chains)
            )
            brute_critical = set()
            for chain in context.chains:
                brute = tuple(context.msis(chain))
                fast = tuple(engine.msis_direct(chain))
                result.record(
                    brute == fast,
                    lambda: f"{where()} chain {chain.describe()}: MSI sets differ "
                    f"(brute {brute}, fast {fast})",
                )
                lo, hi = chain.open_range()
                keys = [engine.label_key(l) for l in chain.labels]
                for k in range(lo, hi + 1):
                    if keys[k][0] < keys[k - 1][0]:  # 1-descent at k
                        result.record(
                            (k, k) in brute,
                            lambda: f"{where()} chain {chain.describe()}: 1-descent at "
                            f"{k} is not a singleton MSI",
                        )
                for a, b in brute:
                    ascent_free = all(
                        keys[k][0] <= keys[k - 1][0] for k in range(a, b + 1)
                    )
                    result.record(
                        ascent_free,
                        lambda: f"{where()} chain {chain.describe()}: MSI ({a},{b}) "
                        "contains an ascent",
                    )
                if j_construction(brute, lo, hi)[1]:  # critical by brute force
                    brute_critical.add(chain)
                    strictly_decreasing = all(
                        keys[k] < keys[k - 1] for k in range(1, len(keys))
                    )
                    result.record(
                        strictly_decreasing,
                        lambda: f"{where()} critical chain {chain.describe()}: labels "
                        "are not strictly decreasing",
                    )
                    result.record(
                        chain in critical,
                        lambda: f"{where()} chain {chain.describe()}: critical by brute "
                        "force but missed by the fast path",
                    )
            for chain in critical:
                result.record(
                    chain in brute_critical,
                    lambda: f"{where()} chain {chain.describe()}: critical by the fast "
                    "path but not by brute force",
                )
    return result


def run_product_lemma(
    posets: Iterable[tuple[str, FinitePoset]], max_chains: int = DEFAULT_MAX_CHAINS
) -> SuiteResult:
    """Per-embedding Morse sums for the two embeddings of a in ab, a <= b.

    The 0a embedding contributes mu0(0,a) * mu0(a,b); the a0 embedding
    contributes mu0(0,b), plus 1 when a = b; together they give mu(a, ab).
    Both are read from one walk of [a, ab].
    """
    result = SuiteResult("product-lemma")
    for name, poset in posets:
        engine = MorseEngine(poset)
        for a in range(poset.n):
            for b in range(poset.n):
                if b not in poset.above[a]:
                    continue
                w = (a, b)
                where = lambda: f"{name} a={poset.names[a]} b={poset.names[b]}"
                by_embedding = engine.embedding_mus((a,), w, max_chains)
                left = by_embedding.get((ZERO, a), 0)
                product = poset.mu0(ZERO, a) * poset.mu0(a, b)
                result.record(
                    left == product,
                    lambda: f"{where()}: 0a contribution {left} != product {product}",
                )
                via_subposet = mobius_embedding_subposet(poset, (ZERO, a), w)
                result.record(
                    via_subposet == product,
                    lambda: f"{where()}: [0a,ab] subposet mu {via_subposet} != {product}",
                )
                right = by_embedding.get((a, ZERO), 0)
                corollary = poset.mu0(ZERO, b) + (1 if a == b else 0)
                result.record(
                    right == corollary,
                    lambda: f"{where()}: a0 contribution {right} != {corollary}",
                )
                total = mobius_main(poset, (a,), w).value
                result.record(
                    left + right == total,
                    lambda: f"{where()}: contributions {left}+{right} != mu(a,ab) {total}",
                )
    return result


def run_inclusion_exclusion(intervals: Iterable[Interval]) -> SuiteResult:
    """mu(Q-hat) = mu(U-hat) + mu(V-hat) - mu((U cap V)-hat) for upper order
    ideals U, V of an open interval Q with U union V = Q.

    U ranges over up-closures of single nodes; V is the up-closure of Q - U.
    All four values come from the alternating chain-count expression, which
    reads <= from the up-sets of the [empty, w] diagram.
    """
    result = SuiteResult("inclusion-exclusion")
    for name, poset, _, w, diagram, _ in intervals:
        nodes, top, up = diagram.nodes, diagram.index[w], diagram.up_sets()
        leq = lambda a, b: b in up[a]
        for iu, u in enumerate(nodes):
            if iu == top:
                continue
            open_nodes = sorted(up[iu] - {iu, top})
            if not open_nodes:
                continue
            whole = mobius_hat_chain_count(open_nodes, leq)
            for seed in open_nodes:
                upper = [v for v in open_nodes if v in up[seed]]
                rest = [v for v in open_nodes if v not in up[seed]]
                v_ideal = set().union(*(up[r] for r in rest)) - {top}
                both = [v for v in upper if v in v_ideal]
                got = (
                    mobius_hat_chain_count(upper, leq)
                    + mobius_hat_chain_count(v_ideal, leq)
                    - mobius_hat_chain_count(both, leq)
                )
                result.record(
                    got == whole,
                    lambda: f"{_pair_text(name, poset, u, w)} seed "
                    f"{format_word(poset, nodes[seed])}: "
                    f"inclusion-exclusion {got} != {whole}",
                )
    return result


def run_all(
    poset_spec: str = DEFAULT_POSET_SPEC,
    max_w: int = 3,
    lemma_max_w: int = 2,
    chebyshev_max_j: int = 5,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_chains: int = DEFAULT_MAX_CHAINS,
) -> list[SuiteResult]:
    """Every suite, over one sweep per poset; the lemma and inclusion-exclusion
    suites see only posets of at most 5 elements."""
    if min(max_w, lemma_max_w, chebyshev_max_j) < 0:
        raise InputError("verify word-length and Chebyshev bounds must not be negative")
    columns: list[list[SuiteResult]] = [[] for _ in range(6)]
    oracle, morse, special, lemmas, product, incexc = columns
    for name, poset in resolve_posets(poset_spec):
        small = poset.n <= 5
        bound = max(max_w, lemma_max_w) if small else max_w
        for interval in sweep([(name, poset)], bound, max_nodes, tables_max_w=max_w):
            wide = [interval] if len(interval.w) <= max_w else []
            narrow = [interval] if small and len(interval.w) <= lemma_max_w else []
            oracle.append(run_oracle_equivalence(wide))
            morse.append(run_morse_agreement(wide, max_chains))
            special.append(run_specializations(wide))
            lemmas.append(run_lemmas(narrow, max_chains))
            incexc.append(run_inclusion_exclusion(narrow))
        product.append(run_product_lemma([(name, poset)], max_chains))
    merged = [_merged(column) for column in columns]
    merged.insert(3, run_chebyshev(chebyshev_max_j))
    return merged


def _merged(parts: list[SuiteResult]) -> SuiteResult:
    """One suite's results as one, failures in sweep order."""
    out = SuiteResult(parts[0].name)
    for part in parts:
        out.checks += part.checks
        out.failures += part.failures
    return out


# -- references -----------------------------------------------------------


class AugmentedPoset:
    """The poset P with a bottom element (id ZERO) adjoined: a validating view
    over the base poset's ``above``, ``interval0`` and ``mu0``, for tests and
    for :func:`mobius.contribution`.  No route builds one."""

    def __init__(self, base: FinitePoset):
        self.base = base
        self.zero = ZERO

    def check_element(self, x: int) -> int:
        if x == ZERO:
            return x
        return self.base.check_element(x)

    def leq(self, a: int, b: int) -> bool:
        self.check_element(a)
        self.check_element(b)
        return a == ZERO or (b != ZERO and b in self.base.above[a])

    def elements(self) -> list[int]:
        return [ZERO] + list(range(self.base.n))

    def covered_by(self, b: int) -> list[int]:
        """Elements covered by b in the augmented order; ZERO is covered by none."""
        if b == ZERO:
            return []
        self.check_element(b)
        return list(self.base.covers_below[b] or (ZERO,))

    def covers_of(self, a: int) -> list[int]:
        """Elements covering a in the augmented order, in id order; ZERO is
        covered by the minimal elements."""
        self.check_element(a)
        below = self.base.covers_below
        if a == ZERO:
            return [b for b in range(self.base.n) if not below[b]]
        return [b for b in range(self.base.n) if a in below[b]]

    def interval(self, a: int, b: int) -> list[int]:
        """Elements of [a, b], unordered domain check included."""
        if not self.leq(a, b):
            raise DomainError(f"{a} is not <= {b} in the augmented poset")
        return self.base.interval0(a, b)

    def mobius0(self, a: int, b: int) -> int:
        """mu(a, b) in P0, read from the base poset's shared memo."""
        if not self.leq(a, b):
            raise DomainError(f"mobius0 requires a <= b; got {a}, {b}")
        return self.base.mu0(a, b)


def random_poset(seed: int, max_elements: int = 5) -> FinitePoset:
    """A small random poset, deterministic per seed.

    A random DAG on ids 0..n-1 (edges only from lower to higher id) is
    transitively reduced before construction.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_elements)
    reach = [{i} for i in range(n)]
    edges: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                edges.add((a, b))
    for a in range(n - 1, -1, -1):
        for b in range(a + 1, n):
            if (a, b) in edges:
                reach[a] |= reach[b]
    covers = [
        (a, b)
        for a, b in edges
        if not any(c != b and b in reach[c] for c in range(a + 1, n) if (a, c) in edges)
    ]
    return FinitePoset([str(i + 1) for i in range(n)], covers)


def mobius_hat_chain_count(
    elements: Sequence, leq: Callable[[object, object], bool]
) -> int:
    """mu of the poset with hat-bottom and hat-top adjoined, via chain counts.

    Uses the alternating chain-count expression -1 + c0 - c1 + c2 - ..., where
    c_i counts chains with i+1 elements, evaluated by dynamic programming.
    """
    elems = list(elements)
    below = [
        [j for j, b in enumerate(elems) if j != i and leq(b, a)]
        for i, a in enumerate(elems)
    ]
    # h[x] = signed count, over chains with top x, of (-1)^(#elements - 1).
    # Ordering by down-set size is a linear extension.
    h: dict[int, int] = {}
    for i in sorted(range(len(elems)), key=lambda i: len(below[i])):
        h[i] = 1 - sum(h[j] for j in below[i])
    return check_i64(-1 + sum(h.values()), "mobius_hat_chain_count")


def embedding_subposet(
    poset: FinitePoset, eta: Embedding, w: Sequence[int]
) -> list[Word]:
    """The subposet [eta, w]: words admitting an expansion pinched pointwise
    between eta and w, under subword order.

    Distinct from the ambient interval [u, w]; Morse contributions per
    embedding and the Mobius value of this subposet differ in general.
    """
    w = check_word(poset, w)
    if not is_embedding(poset, eta, w):
        raise DomainError("eta is not an embedding in w")
    slots = [poset.interval0(x, w[j]) for j, x in enumerate(eta)]
    out = {restrict(acc) for acc in itertools.product(*slots)}
    return sorted(out, key=lambda v: (len(v), v))


def mobius_embedding_subposet(
    poset: FinitePoset, eta: Embedding, w: Sequence[int]
) -> int:
    """Mobius value from restrict(eta) to w inside the subposet [eta, w].

    restrict(eta) and w are its bottom and top, so this is the chain-count
    Mobius value of the open part between them.
    """
    nodes = embedding_subposet(poset, eta, w)
    bottom, top = restrict(eta), tuple(w)
    if bottom == top:
        return 1
    return mobius_hat_chain_count(
        [v for v in nodes if v not in (bottom, top)],
        lambda a, b: trusted_leq(poset, a, b),
    )


class ChainContext:
    """All maximal chains of one interval, PLO-sorted, with element sets: the
    brute-force reference for skipped intervals."""

    def __init__(self, engine: MorseEngine, u: Word, w: Word, chains: list[LabeledChain]):
        self.engine = engine
        self.u = u
        self.w = w
        self.chains = chains
        self.sets = [frozenset(c.words) for c in self.chains]
        self._index = {c.labels: i for i, c in enumerate(self.chains)}
        if len(self._index) != len(self.chains):
            raise InputError("duplicate label sequences: PLO is not total here")

    def index_of(self, chain: LabeledChain) -> int:
        try:
            return self._index[chain.labels]
        except KeyError:
            raise DomainError("chain does not belong to this interval") from None

    def skipped_intervals(self, chain: LabeledChain) -> list[IndexInterval]:
        """All SIs of chain, by containment checks against PLO-earlier chains."""
        elems = chain.words
        lo, hi = chain.open_range()
        earlier = self.sets[: self.index_of(chain)]
        out: list[IndexInterval] = []
        for i in range(lo, hi + 1):
            for j in range(i, hi + 1):
                needed = frozenset(elems[:i]) | frozenset(elems[j + 1 :])
                if any(needed <= s for s in earlier):
                    out.append((i, j))
        return out

    def msis(self, chain: LabeledChain) -> list[IndexInterval]:
        return _minimal_intervals(self.skipped_intervals(chain))

    def decomposition(self, chain: LabeledChain) -> MsiDecomposition:
        msis = self.msis(chain)
        js, critical = j_construction(msis, *chain.open_range())
        return MsiDecomposition(chain, tuple(msis), js, critical, len(js) - 1)


def all_chains(
    engine: MorseEngine, u: Word, w: Word, max_chains: int = DEFAULT_MAX_CHAINS
) -> ChainContext:
    """Every maximal chain of [u, w], PLO-sorted: a DFS over the cover moves,
    which come sorted by label key, keeping each word still above u."""
    u, w = check_interval(engine.poset, u, w, "all_chains")
    chains: list[LabeledChain] = []

    def descend(
        words: tuple[Word, ...], etas: tuple[Embedding, ...], labels: tuple[Label, ...]
    ) -> None:
        if words[-1] == u:
            if len(chains) == max_chains:
                raise ResourceLimitError(f"interval has more than {max_chains} maximal chains")
            chains.append(LabeledChain(engine.poset, words, etas, labels))
            return
        for label, eta, word in engine.cover_moves(etas[-1]):
            if trusted_leq(engine.poset, u, word):
                descend(words + (word,), etas + (eta,), labels + (label,))

    descend((w,), (w,), ())
    return ChainContext(engine, u, w, chains)


def _minimal_intervals(intervals: Sequence[IndexInterval]) -> list[IndexInterval]:
    uniq = sorted(set(intervals))
    return [
        iv
        for iv in uniq
        if not any(o != iv and iv[0] <= o[0] and o[1] <= iv[1] for o in uniq)
    ]
