"""paqft: desk-scale perturbative algebraic QFT.

Exact star products of polynomial field functionals over a discretized 1+1D
spacetime, Feynman-graph combinatorics of time-ordered products, extension of
singular distributions on the line, numerical wavefront-set estimation, and
finite-dimensional GNS/Weyl machinery, with a batch CLI, whose exit code
the exception type sets: InputError 2, CheckFailed 3, any other 4 (a bug).
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """The input is invalid: a config value, an expression or a file."""


class CheckFailed(Exception):
    """A check ran and failed."""
