"""Numerical tolerance policy.

All cutoffs are scale-relative.  One slack serves hermiticity, measured
on the largest entry of the matrix under test, and positivity, measured
on its largest |eigenvalue|; rank cuts follow the usual dimension *
machine-epsilon * spectral-radius rule, one block at a time (linalg.in_range).

The Tolerances in force belong to the computation, not to its objects:
every check reads tolerances() when it runs, which is DEFAULT_TOL outside
a using(tol) block.  It is a ContextVar, so a new thread starts at DEFAULT_TOL.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerances:
    """Scale-relative tolerance bundle used across the package.

    slack multiplies (1 + scale) for the hermiticity and positivity
    slack psd(scale); num is the generic comparison tolerance for
    identities that hold exactly in real arithmetic.
    """

    slack: float = 1e-10
    num: float = 1e-8

    def psd(self, scale: float) -> float:
        return self.slack * (1.0 + scale)


# Largest side of a dense matrix a command builds from a small input: the
# ambient dimension of a built-in chain (ten qubit sites, or 1024 diagonal
# coordinates) and purify's doubled side n^2 (n <= 32).
MAX_CHAIN_DIM = 1024


def rank_cut(dim: int, lam_max: float) -> float:
    """Eigenvalues this small, dim * EPS * lam_max, count as zero."""
    return dim * EPS * lam_max


DEFAULT_TOL = Tolerances()
_IN_FORCE: ContextVar[Tolerances] = ContextVar("tolerances", default=DEFAULT_TOL)


def tolerances() -> Tolerances:
    """The Tolerances in force, read by every check when it runs."""
    return _IN_FORCE.get()


@contextmanager
def using(tol: Tolerances):
    """Put tol in force for the block; the previous value returns on any exit."""
    token = _IN_FORCE.set(tol)
    try:
        yield tol
    finally:
        _IN_FORCE.reset(token)
