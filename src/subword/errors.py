"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI:
  VerificationError -> 1, InputError/DomainError -> 2, ResourceLimitError -> 3,
  IntegerOverflowError -> 2.
"""


class SubwordError(Exception):
    pass


class InputError(SubwordError):
    """Malformed user input: unknown element, bad word syntax, bad file."""


class DomainError(SubwordError):
    """Structurally valid input outside an operation's domain (e.g. u > w)."""


class UnsupportedPosetError(DomainError):
    """The operation's theorem does not apply to this poset."""


class ResourceLimitError(SubwordError):
    """A configured cap (nodes, chains, word length) was exceeded."""


class IntegerOverflowError(SubwordError):
    """A Mobius value left the signed 64-bit range."""


class VerificationError(SubwordError):
    """Two computation routes disagreed; message names the counterexample."""


_I64_MAX = 2**63 - 1


def check_i64(value: int, context: str = "mobius value") -> int:
    """Reject values outside signed 64-bit range instead of silently growing."""
    if not -_I64_MAX - 1 <= value <= _I64_MAX:
        raise IntegerOverflowError(f"{context} overflowed 64-bit range: {value}")
    return value
