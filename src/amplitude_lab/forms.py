"""Sesquilinear forms as Gram matrices and the geometric mean of a pair.

Forms on a block algebra use the matrix-unit basis ordered block by
block, row-major within each block, so Gram matrices are reproducible
bit for bit.  A form gamma is evaluated as gamma(x, y) = x_bar^T G y on
coordinate vectors (conjugate-linear in the first argument).

The mean of two positive forms is computed through the canonical
commuting representation of the pair: with S = G_a + G_b and r = rank S,
the embedding j sends coordinates to S^{1/2} restricted to range
coordinates, the operator A is the compression of S^{-1/2} G_a S^{-1/2}
to the range, and B = I - A.  The mean's Gram is J* (A(I-A))^{1/2} J,
the largest Hermitian form dominated by the pair.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import BlockAlgebra, BlockOperator, Functional, _check_algebra
from .config import tolerances
from .errors import DomainError, ShapeError
from .linalg import (
    block_diag,
    check_psd,
    eigh,
    eigvalsh,
    hermitian_part,
    hermitize,
    in_range,
    is_psd,
    psd_function,
)


@dataclass(frozen=True, eq=False)
class HermitianForm:
    """Hermitian sesquilinear form on C^dim, stored as its Gram matrix.

    The Gram matrix is stored by linalg.real_if_exact: float64 when its
    imaginary part is exactly zero, complex128 otherwise.
    """

    gram: np.ndarray = field(repr=False)
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "gram", hermitian_part(self.gram, "Gram matrix"))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.conj(x) @ self.gram @ y)

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        return type(self)(self.gram + other.gram)

    def __mul__(self, c: float) -> "HermitianForm":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return type(self)(c * self.gram)

    __rmul__ = __mul__


class PositiveForm(HermitianForm):
    """Hermitian form with positive semidefinite Gram matrix."""

    def __post_init__(self):
        super().__post_init__()
        check_psd(eigvalsh(self.gram), "Gram matrix")


@dataclass(frozen=True, eq=False)
class PairRepresentation:
    """Canonical commuting representation of a pair of positive forms.

    jmat holds the coordinates of the embedding (rank x dim); a_op and
    b_op are commuting PSD operators on the range with a_op + b_op = I
    and J* a_op J = G_a, J* b_op J = G_b.
    """

    rank: int
    jmat: np.ndarray = field(repr=False)
    a_op: np.ndarray = field(repr=False)
    b_op: np.ndarray = field(repr=False)


def matrix_units(algebra: BlockAlgebra) -> Iterator[BlockOperator]:
    """Matrix units in the documented order: block by block, row-major."""
    for k, n in enumerate(algebra.block_dims):
        for i in range(n):
            for j in range(n):
                blocks = [np.zeros((m, m)) for m in algebra.block_dims]
                blocks[k][i, j] = 1.0
                yield BlockOperator(algebra, tuple(blocks))


def operator_coordinates(x: BlockOperator) -> np.ndarray:
    """Coordinates of an element in the matrix-unit basis."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def left_form(phi: Functional) -> PositiveForm:
    """Gram of (x, y) -> phi(x^* y) on the matrix-unit basis."""
    phi.require_positive()
    grams = [np.kron(np.eye(n), d.T) for n, d in zip(phi.algebra.block_dims, phi.densities)]
    return PositiveForm(block_diag(*grams))


def right_form(phi: Functional) -> PositiveForm:
    """Gram of (x, y) -> phi(y x^*) on the matrix-unit basis."""
    phi.require_positive()
    grams = [np.kron(d, np.eye(n)) for n, d in zip(phi.algebra.block_dims, phi.densities)]
    return PositiveForm(block_diag(*grams))


def interpolated_form(phi: Functional, psi: Functional, t: float) -> PositiveForm:
    """Gram of (x, y) -> sum_k Tr(D_phi^(1-t) x^* D_psi^t y) for t in [0, 1].

    Fractional powers come from each density's cached spectrum with the
    clamped cuts of psd_function; the zero eigenvalue maps to 0 for
    positive exponents and to 1 at exponent 0, so t = 0 and t = 1
    reproduce the left and right forms exactly.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"interpolation parameter {t} outside [0, 1]")
    _check_algebra(phi.algebra, psi)
    phi.require_positive()
    psi.require_positive()
    grams = []
    for sp, sq in zip(phi.spectrum(), psi.spectrum()):
        p = psd_function(sp, lambda w: np.power(w, 1.0 - t))
        q = psd_function(sq, lambda w: np.power(w, t))
        grams.append(np.kron(q, p.T))
    return PositiveForm(block_diag(*grams))


def _pair_spectral(alpha: PositiveForm, beta: PositiveForm):
    """Embedding coordinates and the snapped spectral data of the A operator.

    Eigenvalues of A are clipped to [0, 1] and values within the
    roundoff window of the endpoints are snapped to exactly 0 or 1:
    rank-deficient directions carry exact endpoint eigenvalues, and the
    half-power of the mean would amplify their noise to its square root.
    """
    if alpha.dim != beta.dim:
        raise ShapeError(f"form dimensions differ: {alpha.dim} vs {beta.dim}")
    w, v = eigh(alpha.gram + beta.gram)
    keep = in_range(w)
    wr = w[keep]
    vr = v[:, keep]
    jmat = (np.sqrt(wr)[:, None]) * vr.conj().T
    inv_root = vr * (1.0 / np.sqrt(wr))[None, :]
    a = hermitize(inv_root.conj().T @ alpha.gram @ inv_root)
    wa, va = eigh(a)
    wa = np.clip(wa, 0.0, 1.0)
    snap = tolerances().psd(1.0)
    wa = np.where(wa < snap, 0.0, wa)
    wa = np.where(wa > 1.0 - snap, 1.0, wa)
    return jmat, wa, va


def pair_representation(alpha: PositiveForm, beta: PositiveForm) -> PairRepresentation:
    """Canonical representation of the unordered pair {alpha, beta}.

    Degenerate pairs are handled by range compression: the rank may be
    smaller than the dimension and no inverse is taken outside the range
    of G_a + G_b.
    """
    jmat, wa, va = _pair_spectral(alpha, beta)
    r = wa.size
    a = hermitize((va * wa) @ va.conj().T)
    b = np.eye(r) - a
    return PairRepresentation(rank=r, jmat=jmat, a_op=a, b_op=b)


def geometric_mean(alpha: PositiveForm, beta: PositiveForm) -> PositiveForm:
    """Largest Hermitian form dominated by {alpha, beta}; symmetric in the pair."""
    jmat, wa, va = _pair_spectral(alpha, beta)
    middle = (va * np.sqrt(wa * (1.0 - wa))) @ va.conj().T
    gram = hermitize(jmat.conj().T @ middle @ jmat)
    return PositiveForm(gram)


def is_dominated(gamma: HermitianForm, alpha: PositiveForm, beta: PositiveForm) -> bool:
    """Exact block-PSD certificate for |gamma(x,y)|^2 <= alpha(x,x) beta(y,y).

    Equivalent to the contraction factorization G_c = G_a^{1/2} K G_b^{1/2}
    with ||K|| <= 1; the block is tested by is_psd.
    """
    if not (gamma.dim == alpha.dim == beta.dim):
        raise ShapeError("form dimensions differ")
    top = np.hstack([alpha.gram, gamma.gram])
    bottom = np.hstack([gamma.gram.conj().T, beta.gram])
    return is_psd(eigvalsh(np.vstack([top, bottom])))
