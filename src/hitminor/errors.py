"""Exception types shared across the package."""


class GuardError(Exception):
    """An input exceeds a hard size guard.

    Guards are refusals, never silent truncation: exhaustive routines and the
    exact decomposition solver raise this instead of degrading.
    """


class FormatError(Exception):
    """A .gr or .td file (or stream) is malformed."""


class InvalidDecomposition(ValueError):
    """A tree decomposition violates an axiom for its graph.

    A ValueError, so library callers catching that keep working; the CLI
    reports it as an input format error.
    """
