"""Dense Hermitian linear-algebra helpers.

Every eigendecomposition in the package goes through eigh or eigvalsh
here, so that the choice of LAPACK solver and the scale-relative
tolerances are applied uniformly.  Callers pass exactly Hermitian
matrices: hermitized once where a matrix comes from a product or from
outside, as is where it is Hermitian by construction.  Every
matrix function (root, power, inverse, flow unitary) is taken from a
spectrum by spectral_apply.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, Tolerances, rank_cut
from .errors import NotPositive

Spectrum = tuple[np.ndarray, np.ndarray]


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a*) / 2."""
    return 0.5 * (a + a.conj().T)


def _real_if_exact(h: np.ndarray) -> np.ndarray:
    """h.real when no entry of h has a nonzero imaginary part, else h itself."""
    return h if h.imag.any() else h.real


def eigh(h: np.ndarray) -> Spectrum:
    """Eigendecomposition (w, v) of a Hermitian matrix, eigenvalues ascending.

    A matrix whose imaginary part is exactly zero goes to LAPACK's real
    symmetric solver, and its eigenvectors come back real; any nonzero
    imaginary entry keeps the complex Hermitian solver.
    """
    return np.linalg.eigh(_real_if_exact(h))


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, on the solver eigh picks."""
    return np.linalg.eigvalsh(_real_if_exact(h))


def hermitian_part(
    a: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
    what: str = "matrix",
    error: type[Exception] = NotPositive,
) -> np.ndarray:
    """hermitize(a), after checking max|a - a*| <= tol.psd(max|a|); else raise error.

    a* is formed once and serves both the check and the Hermitian part,
    which is bit-identical to hermitize(a).  NaN fails the check.
    """
    ah = a.conj().T
    if a.size and not float(np.max(np.abs(a - ah))) <= tol.psd(float(np.max(np.abs(a)))):
        raise error(f"{what} is not Hermitian within tolerance")
    return 0.5 * (a + ah)


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Complex block-diagonal matrix with the given blocks along the diagonal."""
    out = np.zeros(
        (sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=complex
    )
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of the hermitized input."""
    if a.size == 0:
        return 0.0
    return float(eigvalsh(hermitize(a))[0])


def is_psd(w: np.ndarray, tol: Tolerances) -> bool:
    """The one positivity test: no eigenvalue in w falls below -tol.psd(max|w|)."""
    return not w.size or float(np.min(w)) >= -tol.psd(float(np.max(np.abs(w))))


def check_psd(w: np.ndarray, tol: Tolerances, what: str = "matrix") -> None:
    """Raise NotPositive unless is_psd(w, tol) for the eigenvalues w."""
    if not is_psd(w, tol):
        raise NotPositive(f"{what} is not positive semidefinite: eigenvalue {np.min(w):.3e}")


def spectral_apply(spec: Spectrum, f) -> np.ndarray:
    """The matrix function v f(w) v* of the Hermitian matrix with spectrum (w, v)."""
    w, v = spec
    return (v * f(w)) @ v.conj().T


def psd_function(spec: Spectrum, f) -> np.ndarray:
    """Hermitian f(h) of a PSD matrix h from its spectrum, with roundoff clamped to 0.

    Raises nothing: callers decide positivity first, by is_psd or by
    Functional.is_positive.  Eigenvalues below the rank cut of this
    matrix's own largest |eigenvalue|, negative roundoff included, are
    zeroed, so exact-rank-deficient input stays exactly rank deficient
    (fractional powers would otherwise amplify eigenvalue noise to its
    square root).  With f a power s, zero eigenvalues map to 0 for s > 0
    and to 1 at s = 0.
    """
    w, v = spec
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    w = np.where(w < rank_cut(w.size, lam_max), 0.0, w)
    return hermitize(spectral_apply((w, v), f))


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Unique PSD square root of a Hermitian PSD matrix; NotPositive otherwise."""
    spec = eigh(hermitize(h))
    check_psd(spec[0], DEFAULT_TOL)
    return psd_function(spec, np.sqrt)


def unitary_power(spec: Spectrum, z: complex, cut: float) -> np.ndarray:
    """h^z for Hermitian positive-definite h with spectrum spec, complex exponent z.

    Eigenvalues at or below the cut raise NotPositive (callers enforce
    faithfulness first, so the spectrum should be strictly positive).
    """
    w, _ = spec
    if w.size and float(w[0]) <= cut:
        raise NotPositive(f"eigenvalue {w[0]:.3e} not strictly positive (cut {cut:.3e})")
    return spectral_apply(spec, lambda w: np.power(w.astype(complex), z))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input the sum of |eigenvalues|."""
    if a.size == 0:
        return 0.0
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))
