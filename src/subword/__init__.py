"""Mobius functions, critical chains and homotopy data for generalized
subword order over a finite ground poset."""

from .chebyshev import (
    ChebyshevCheck,
    IntPolynomial,
    binom,
    chebyshev_T,
    chebyshev_T_closed,
    mobius_closed_form,
    tomie_T,
    verify_chebyshev,
)
from .errors import (
    DomainError,
    InputError,
    IntegerOverflowError,
    ResourceLimitError,
    SubwordError,
    UnsupportedPosetError,
    VerificationError,
)
from .mobius import (
    HomotopyReport,
    MobiusReport,
    contribution,
    defect,
    embedding_subposet,
    homotopy_type,
    is_normal_forest,
    mobius_bjorner,
    mobius_embedding_subposet,
    mobius_forest,
    mobius_main,
    mobius_oracle,
    normal_embeddings_antichain,
    rank_word,
)
from .morse import (
    ChainContext,
    LabeledChain,
    MorseEngine,
    MsiDecomposition,
)
from .poset import (
    ZERO,
    AugmentedPoset,
    FinitePoset,
    NaturalLabeling,
    all_linear_extensions,
    builtin_poset,
    load_poset,
    mobius_hat_chain_count,
    natural_labeling,
)
from .words import (
    Embedding,
    IntervalDiagram,
    Word,
    build_interval,
    embeddings,
    format_embedding,
    format_word,
    is_leq_words,
    parse_word,
    restrict,
    rightmost_embedding,
    runs,
)

__all__ = [
    # chebyshev
    "ChebyshevCheck", "IntPolynomial", "binom", "chebyshev_T", "chebyshev_T_closed",
    "mobius_closed_form", "tomie_T", "verify_chebyshev",
    # errors
    "DomainError", "InputError", "IntegerOverflowError", "ResourceLimitError",
    "SubwordError", "UnsupportedPosetError", "VerificationError",
    # mobius
    "HomotopyReport", "MobiusReport", "contribution", "defect", "embedding_subposet",
    "homotopy_type", "is_normal_forest", "mobius_bjorner", "mobius_embedding_subposet",
    "mobius_forest", "mobius_main", "mobius_oracle", "normal_embeddings_antichain",
    "rank_word",
    # morse
    "ChainContext", "LabeledChain", "MorseEngine", "MsiDecomposition",
    # poset
    "ZERO", "AugmentedPoset", "FinitePoset", "NaturalLabeling", "all_linear_extensions",
    "builtin_poset", "load_poset", "mobius_hat_chain_count", "natural_labeling",
    # words
    "Embedding", "IntervalDiagram", "Word", "build_interval", "embeddings",
    "format_embedding", "format_word", "is_leq_words", "parse_word", "restrict",
    "rightmost_embedding", "runs",
]
__version__ = "0.1.0"
