"""Exception hierarchy shared across the package.

CLI exit-code mapping: ``ConfigError``/``ParseError``/``FormatError`` are
validation failures (exit 1), everything else under ``SynGcnError`` is a
runtime error (exit 2).
"""


class SynGcnError(Exception):
    pass


class ShapeError(SynGcnError):
    """Operand shapes (or dtypes) are incompatible for an operation."""


class NumericsError(SynGcnError):
    """A tensor left the finite-value domain (NaN/Inf)."""


class ParseError(SynGcnError):
    """Malformed CoNLL input."""


class FormatError(SynGcnError):
    """Malformed auxiliary file (embeddings, lexicon, checkpoint)."""


class LayoutMismatch(FormatError):
    """A checkpoint's tensors differ from those of the model read from it."""


class ConfigError(SynGcnError):
    """Invalid configuration value or combination."""


class ContractError(SynGcnError):
    """A caller violated an API precondition."""
