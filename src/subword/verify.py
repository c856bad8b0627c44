"""Cross-method verification suites: oracle equivalence, specializations,
Morse agreement, Chebyshev coefficients and structural lemma checks.

Each suite returns a :class:`SuiteResult`; failures carry a printable
counterexample so callers can name the offending instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .chebyshev import chebyshev_T, chebyshev_T_closed, verify_chebyshev
from .errors import InputError
from .mobius import (
    mobius_bjorner,
    mobius_embedding_subposet,
    mobius_forest,
    mobius_main,
)
from .morse import MorseEngine
from .poset import (
    ZERO,
    FinitePoset,
    builtin_poset,
    mobius_hat_chain_count,
    random_poset,
)
from .words import Word, build_interval, format_word, trusted_leq

DEFAULT_POSET_SPEC = "lambda,lambda:3,fig3,chain:3,antichain:3"


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, counterexample: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(counterexample)


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
            out.extend((f"random:seed={s}", random_poset(s)) for s in range(count))
        else:
            out.append((part, builtin_poset(part)))
    return out


def all_words(poset: FinitePoset, max_len: int) -> Iterator[Word]:
    for length in range(max_len + 1):
        yield from itertools.product(range(poset.n), repeat=length)


def _pair_text(name: str, poset: FinitePoset, u: Word, w: Word) -> str:
    return f"{name} [{format_word(poset, u)}, {format_word(poset, w)}]"


def run_oracle_equivalence(
    posets: Iterable[tuple[str, FinitePoset]], max_w: int
) -> SuiteResult:
    """formula = oracle on every interval [u, w] with |w| <= max_w."""
    result = SuiteResult("oracle-equivalence")
    for name, poset in posets:
        for w in all_words(poset, max_w):
            oracle = build_interval(poset, (), w).mobius_to_top()
            for u, mu in oracle.items():
                got = mobius_main(poset, u, w).value
                result.record(
                    got == mu,
                    f"{_pair_text(name, poset, u, w)}: formula {got} != oracle {mu}",
                )
    return result


def run_morse_agreement(
    posets: Iterable[tuple[str, FinitePoset]], max_w: int
) -> SuiteResult:
    """Morse critical-chain sum = formula on every interval with |w| <= max_w."""
    result = SuiteResult("morse-agreement")
    for name, poset in posets:
        engine = MorseEngine(poset)
        for w in all_words(poset, max_w):
            for u, mu in engine.mobius_morse_below(w).items():
                got = mobius_main(poset, u, w).value
                result.record(
                    got == mu,
                    f"{_pair_text(name, poset, u, w)}: formula {got} != morse {mu}",
                )
    return result


def run_specializations(
    posets: Iterable[tuple[str, FinitePoset]], max_w: int
) -> SuiteResult:
    """Antichain and rooted-forest formulas agree with the main formula."""
    result = SuiteResult("specialization-coherence")
    for name, poset in posets:
        antichain = poset.is_antichain()
        forest = poset.is_rooted_forest()
        if not (antichain or forest):
            continue
        for w in all_words(poset, max_w):
            for u in build_interval(poset, (), w).nodes:
                expect = mobius_main(poset, u, w).value
                if antichain:
                    got = mobius_bjorner(poset, u, w)
                    result.record(
                        got == expect,
                        f"{_pair_text(name, poset, u, w)}: antichain {got} != {expect}",
                    )
                if forest:
                    got = mobius_forest(poset, u, w)
                    result.record(
                        got == expect,
                        f"{_pair_text(name, poset, u, w)}: forest {got} != {expect}",
                    )
    return result


def run_chebyshev(max_j: int = 5, s_values: tuple[int, ...] = (1, 2, 3)) -> SuiteResult:
    """Coefficient identities for the generalized Chebyshev family."""
    result = SuiteResult("chebyshev")
    for s in s_values:
        for j in range(max_j + 1):
            for i in range(j + 1):
                check = verify_chebyshev(i, j, s)
                result.record(
                    check.equal,
                    f"s={s} (i,j)=({i},{j}): mu {check.mu} != coeff {check.coeff}",
                )
    for n in range(11):
        result.record(
            chebyshev_T(n) == chebyshev_T_closed(n),
            f"T_{n}: recurrence and closed form differ",
        )
    return result


def run_lemmas(
    posets: Iterable[tuple[str, FinitePoset]], max_w: int
) -> SuiteResult:
    """Structural checks on critical chains and skipped intervals.

    Per interval (small scale, brute force): critical chains carry strictly
    decreasing label keys, the fast skipped-interval test matches the brute
    chain comparison, a 1-descent is always a singleton MSI, and no MSI
    contains an ascent.
    """
    result = SuiteResult("lemma-suite")
    for name, poset in posets:
        engine = MorseEngine(poset)
        for w in all_words(poset, max_w):
            for u in build_interval(poset, (), w).nodes:
                if u == w:
                    continue
                where = _pair_text(name, poset, u, w)
                context = engine.all_chains(u, w)
                critical = {
                    dec.chain: dec for dec in engine.critical_chains(u, w)
                }
                for chain in context.chains:
                    brute = tuple(engine.msis(chain, context))
                    fast = tuple(engine.msis_direct(chain))
                    result.record(
                        brute == fast,
                        f"{where} chain {chain.describe()}: MSI sets differ "
                        f"(brute {brute}, fast {fast})",
                    )
                    lo, hi = chain.open_range()
                    keys = [engine.label_key(l) for l in chain.labels]
                    for k in range(lo, hi + 1):
                        if keys[k][0] < keys[k - 1][0]:  # 1-descent at k
                            result.record(
                                (k, k) in brute,
                                f"{where} chain {chain.describe()}: 1-descent at "
                                f"{k} is not a singleton MSI",
                            )
                    for a, b in brute:
                        ascent_free = all(
                            keys[k][0] <= keys[k - 1][0] for k in range(a, b + 1)
                        )
                        result.record(
                            ascent_free,
                            f"{where} chain {chain.describe()}: MSI ({a},{b}) "
                            "contains an ascent",
                        )
                    dec = engine.decomposition(chain, context)
                    if dec.is_critical:
                        strictly_decreasing = all(
                            keys[k] < keys[k - 1] for k in range(1, len(keys))
                        )
                        result.record(
                            strictly_decreasing,
                            f"{where} critical chain {chain.describe()}: labels "
                            "are not strictly decreasing",
                        )
                        result.record(
                            chain in critical,
                            f"{where} chain {chain.describe()}: critical by brute "
                            "force but missed by the fast path",
                        )
                for chain in critical:
                    result.record(
                        engine.decomposition(chain, context).is_critical,
                        f"{where} chain {chain.describe()}: critical by the fast "
                        "path but not by brute force",
                    )
    return result


def run_product_lemma(posets: Iterable[tuple[str, FinitePoset]]) -> SuiteResult:
    """Per-embedding Morse sums for the two embeddings of a in ab, a <= b.

    The 0a embedding contributes mu0(0,a) * mu0(a,b); the a0 embedding
    contributes mu0(0,b), plus 1 when a = b; together they give mu(a, ab).
    """
    result = SuiteResult("product-lemma")
    for name, poset in posets:
        engine = MorseEngine(poset)
        for a in range(poset.n):
            for b in range(poset.n):
                if b not in poset.above[a]:
                    continue
                w = (a, b)
                where = f"{name} a={poset.names[a]} b={poset.names[b]}"
                left = engine.per_embedding_mu((ZERO, a), w)
                product = poset.mu0(ZERO, a) * poset.mu0(a, b)
                result.record(
                    left == product,
                    f"{where}: 0a contribution {left} != product {product}",
                )
                via_subposet = mobius_embedding_subposet(poset, (ZERO, a), w)
                result.record(
                    via_subposet == product,
                    f"{where}: [0a,ab] subposet mu {via_subposet} != {product}",
                )
                right = engine.per_embedding_mu((a, ZERO), w)
                corollary = poset.mu0(ZERO, b) + (1 if a == b else 0)
                result.record(
                    right == corollary,
                    f"{where}: a0 contribution {right} != {corollary}",
                )
                total = mobius_main(poset, (a,), w).value
                result.record(
                    left + right == total,
                    f"{where}: contributions {left}+{right} != mu(a,ab) {total}",
                )
    return result


def run_inclusion_exclusion(
    posets: Iterable[tuple[str, FinitePoset]], max_w: int
) -> SuiteResult:
    """mu(Q-hat) = mu(U-hat) + mu(V-hat) - mu((U cap V)-hat) for upper order
    ideals U, V of an open interval Q with U union V = Q.

    U ranges over up-closures of single nodes; V is the up-closure of Q - U.
    All four values come from the alternating chain-count expression.
    """
    result = SuiteResult("inclusion-exclusion")
    for name, poset in posets:
        for w in all_words(poset, max_w):
            diagram = build_interval(poset, (), w)
            for u in diagram.nodes:
                if u == w:
                    continue
                sub = build_interval(poset, u, w)
                open_nodes = [v for v in sub.nodes if v not in (u, w)]
                if not open_nodes:
                    continue
                leq = lambda a, b: trusted_leq(poset, a, b)
                whole = mobius_hat_chain_count(open_nodes, leq)
                where = _pair_text(name, poset, u, w)
                for seed in open_nodes:
                    upper = [v for v in open_nodes if leq(seed, v)]
                    rest = [v for v in open_nodes if v not in upper]
                    v_ideal = sorted(
                        {v for r in rest for v in open_nodes if leq(r, v)}
                    )
                    both = [v for v in upper if v in v_ideal]
                    got = (
                        mobius_hat_chain_count(upper, leq)
                        + mobius_hat_chain_count(v_ideal, leq)
                        - mobius_hat_chain_count(both, leq)
                    )
                    result.record(
                        got == whole,
                        f"{where} seed {format_word(poset, seed)}: "
                        f"inclusion-exclusion {got} != {whole}",
                    )
    return result


def run_all(
    poset_spec: str = DEFAULT_POSET_SPEC,
    max_w: int = 3,
    lemma_max_w: int = 2,
    chebyshev_max_j: int = 5,
) -> list[SuiteResult]:
    posets = resolve_posets(poset_spec)
    small = [(nm, p) for nm, p in posets if p.n <= 5]
    return [
        run_oracle_equivalence(posets, max_w),
        run_morse_agreement(posets, max_w),
        run_specializations(posets, max_w),
        run_chebyshev(chebyshev_max_j),
        run_lemmas(small, lemma_max_w),
        run_product_lemma(posets),
        run_inclusion_exclusion(small, lemma_max_w),
    ]
