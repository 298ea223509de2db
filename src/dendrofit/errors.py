"""Exception types raised across the package.

The CLI maps these onto exit codes: a ``UsageError`` exits 2, any
other ``DendrofitError`` (an estimation or runtime problem) exits 1.
"""


class DendrofitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(DendrofitError):
    """An invocation or an input file is wrong: a flag's value, an output
    path, or a cell, row or document of an input."""


# -- dataset / schema validation -------------------------------------------

class UnknownCategory(UsageError):
    """A discrete cell holds a label that is not in the schema."""


class NonFiniteValue(UsageError):
    """A Gaussian cell is NaN, infinite, or not parseable as a real."""


class ArityMismatch(UsageError):
    """A row does not have exactly one cell per schema variable."""


class EmptyDataset(UsageError):
    """No data rows were supplied."""


class SchemaMismatch(UsageError):
    """A dataset does not match the schema a model was fitted on."""


# -- graphs ------------------------------------------------------------------

class CyclicInput(DendrofitError):
    """An edge set or parent map that must be acyclic contains a loop."""


class EmptyEdgeList(DendrofitError):
    """A forest builder was handed no candidate edges."""


class TooLarge(DendrofitError):
    """An exhaustive oracle was asked to enumerate beyond its size bound."""


class UnsupportedSupport(DendrofitError):
    """KL divergence is undefined: the approximation is zero where the
    target has mass."""


# -- estimation ---------------------------------------------------------------

class SameVertex(DendrofitError):
    """Pair statistics were requested for a vertex paired with itself."""


class DegenerateGaussian(DendrofitError):
    """A Gaussian quantity has zero variance, so correlation and mutual
    information are undefined."""


class QuadratureFailure(DendrofitError):
    """Numerical integration failed its self-consistency check."""


# -- cli / sampling ------------------------------------------------------------

class InvalidCount(UsageError):
    """A sample count that must be a positive integer is not."""


class DataFormatError(UsageError):
    """An input file (CSV, schema JSON, model JSON) is malformed."""
