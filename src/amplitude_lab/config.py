"""Numerical tolerance policy.

All cutoffs are scale-relative.  One slack serves hermiticity, measured
on the largest entry of the matrix under test, and positivity, measured
on its largest |eigenvalue|; rank cuts follow the usual dimension *
machine-epsilon * spectral-radius rule, one block at a time (linalg.in_range).
"""

from __future__ import annotations

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


def rank_cut(dim: int, lam_max: float) -> float:
    """Eigenvalues this small, dim * EPS * lam_max, count as zero."""
    return dim * EPS * lam_max


DEFAULT_TOL = Tolerances()
