"""Mobius functions, critical chains and homotopy data for generalized
subword order over a finite ground poset.

Every public name below is exported lazily (PEP 562): its submodule is
imported on first access, so ``import subword`` loads no submodule and a CLI
call loads only the route it runs.
"""

_EXPORTS = {
    "chebyshev": (
        "ChebyshevCheck", "IntPolynomial", "binom", "chebyshev_T", "chebyshev_T_closed",
        "mobius_closed_form", "tomie_T", "verify_chebyshev",
    ),
    "errors": (
        "DomainError", "InputError", "IntegerOverflowError", "ResourceLimitError",
        "SubwordError", "UnsupportedPosetError", "VerificationError",
    ),
    "homotopy": ("HomotopyReport", "homotopy_type", "rank_word"),
    "interval": ("IntervalDiagram", "build_interval", "mobius_oracle"),
    "mobius": ("MobiusReport", "contribution", "mobius_main", "mobius_main_below"),
    "morse": ("LabeledChain", "MorseEngine", "MsiDecomposition"),
    "poset": ("ZERO", "FinitePoset", "builtin_poset", "load_poset"),
    "specializations": (
        "defect", "is_normal_forest", "mobius_bjorner", "mobius_forest",
        "normal_embeddings_antichain",
    ),
    "verify": (
        "AugmentedPoset", "ChainContext", "embedding_subposet", "mobius_embedding_subposet",
        "mobius_hat_chain_count",
    ),
    "words": (
        "Embedding", "Word", "embeddings", "format_embedding", "format_word",
        "is_leq_words", "parse_word", "restrict", "runs",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
