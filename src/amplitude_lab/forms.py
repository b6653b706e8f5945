"""Sesquilinear forms as Gram matrices and the geometric mean of a pair.

Forms on a block algebra use the matrix-unit basis ordered block by
block, row-major within each block, so Gram matrices are reproducible
bit for bit.  A form gamma is evaluated as gamma(x, y) = x_bar^T G y on
coordinate vectors (conjugate-linear in the first argument).

The left and right forms are interpolated_form at t = 0 and t = 1.  A
form's summands are the diagonal blocks of its Gram's exact-nonzero
pattern (linalg.diagonal_blocks), and its spectra are taken summand by
summand.  The mean of two positive forms is the direct sum of the means
of their joint summands (Kubo & Ando), each read from the canonical
commuting representation of its pair: with S = G_a + G_b, the embedding
j sends coordinates to S^{1/2} restricted to range coordinates, the
operator A is the compression of S^{-1/2} G_a S^{-1/2} to the range, and
B = I - A, its eigenvalues measured on the pair (1 - a loses digits near
a = 1).  The mean's Gram is J* (AB)^{1/2} J, the largest Hermitian form
dominated by the pair.  No tolerance reaches its arithmetic.

The forms built here are positive by construction: interpolated_form's
kron(q, p^T) has the products of two clamped spectra, which
require_positive has accepted, as eigenvalues, and the mean's (AB)^{1/2}
has a and b clipped to [0, 1].  Both Grams, of hermitized factors, are
exactly Hermitian too, so they are stored as built (linalg.built), with no
eigvalsh; PositiveForm diagonalises the Grams of files and callers.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .algebra import BlockAlgebra, BlockOperator, Functional, _check_algebra
from .config import as_built, rank_cut, real
from .errors import DomainError, NotPositive, ShapeError
from .linalg import (
    Spectrum,
    built,
    check_psd,
    diagonal_blocks,
    eigh,
    eigvalsh,
    hermitian_part,
    hermitize,
    in_range,
    is_psd,
    power,
    spectral_apply,
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

    def __mul__(self, c: complex) -> "HermitianForm":
        """c times the form.  A real multiple of a Hermitian Gram is exactly Hermitian, and a
        nonnegative one of a PositiveForm's positive, so a finite one is stored as built; a
        non-real, negative (of a PositiveForm) or non-finite one is read, by the form's class."""
        if not isinstance(c, numbers.Number):
            return NotImplemented
        gram, negative = c * self.gram, np.real(c) < 0 and isinstance(self, PositiveForm)
        if np.imag(c) != 0 or negative or not np.isfinite(gram).all():
            return type(self)(gram)
        return as_built(type(self), gram=built(gram))

    __rmul__ = __mul__


class PositiveForm(HermitianForm):
    """Hermitian form with positive semidefinite Gram matrix, checked summand by summand."""

    def __post_init__(self):
        super().__post_init__()
        check_psd(eigvalsh(self.gram), "Gram matrix")


def _positive_by_construction(gram: np.ndarray) -> PositiveForm:
    """PositiveForm of a Gram built positive here: linalg.built once finite, and no eigvalsh."""
    if not np.isfinite(gram).all():
        raise NotPositive("Gram matrix is not finite")
    return as_built(PositiveForm, gram=built(gram))


def matrix_units(algebra: BlockAlgebra) -> Iterator[BlockOperator]:
    """Matrix units in the documented order: block by block, row-major."""
    for k, n in enumerate(algebra.block_dims):
        for i in range(n):
            for j in range(n):
                blocks = [np.zeros((m, m)) for m in algebra.block_dims]
                blocks[k][i, j] = 1.0
                yield BlockOperator._built(algebra, tuple(blocks))


def operator_coordinates(x: BlockOperator) -> np.ndarray:
    """Coordinates of an element in the matrix-unit basis."""
    return np.concatenate([b.reshape(-1) for b in x.blocks])


def left_form(phi: Functional) -> PositiveForm:
    """Gram of (x, y) -> phi(x^* y) on the matrix-unit basis: interpolated_form at t = 0."""
    return interpolated_form(phi, phi, 0.0)


def right_form(phi: Functional) -> PositiveForm:
    """Gram of (x, y) -> phi(y x^*) on the matrix-unit basis: interpolated_form at t = 1."""
    return interpolated_form(phi, phi, 1.0)


def interpolated_form(phi: Functional, psi: Functional, t: float) -> PositiveForm:
    """Gram of (x, y) -> sum_k Tr(D_phi^(1-t) x^* D_psi^t y) for t in [0, 1].

    Fractional powers come from each density's cached spectrum by
    linalg.power; the zero eigenvalue maps to 0 for positive exponents and
    to 1 at exponent 0, so the unused factor at t = 0 (the left form) and
    t = 1 (the right form) is the identity.  t is a real number (config.real).
    """
    t = real(t, "interpolation parameter", DomainError)
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"interpolation parameter {t} outside [0, 1]")
    _check_algebra(phi.algebra, psi)
    phi.require_positive()
    psi.require_positive()
    grams = [
        np.kron(power(sq, t), power(sp, 1.0 - t).T)
        for sp, sq in zip(phi.spectrum(), psi.spectrum())
    ]
    ends = np.cumsum([len(g) for g in grams]).tolist()
    gram = np.zeros((ends[-1], ends[-1]), dtype=np.result_type(*grams))
    for g, end in zip(grams, ends):
        gram[end - len(g) : end, end - len(g) : end] = g
    return _positive_by_construction(gram)


def _pair(ga: np.ndarray, gb: np.ndarray) -> tuple[np.ndarray, Spectrum, np.ndarray]:
    """The canonical representation (J, (a, v), b) of the pair of Grams ga and gb.

    J (rank x dim) embeds the coordinates, and A, B = I - A commute with
    spectra (a, v) and (b, v) in [0, 1], J* A J = G_a and J* B J = G_b.  No
    inverse is taken outside the range of S = G_a + G_b.  With X = S^{-1/2},
    an eigenvalue a of A = X* G_a X (eigenvector v) snaps to its nearer
    endpoint, lest the mean's root lift an exact endpoint's noise, within
    the roundoff measured on the pair, capped at 1/2: |a + b - 1| for
    b = v* X* G_b X v, plus rank_cut(2 dim, |v|* |X|* (|G_a| + |G_b|) |X| |v|),
    the products' entrywise bound.  B's eigenvalue is that b, clipped to
    [0, 1] and snapped with a.
    """
    w, x = eigh(ga + gb)
    keep = in_range(w)
    wr, x = w[keep], x[:, keep]
    jmat = np.sqrt(wr)[:, None] * x.conj().T
    x *= 1.0 / np.sqrt(wr)  # in place: the kept eigenvectors become X = S^{-1/2}
    spec = eigh(hermitize(x.conj().T @ ga @ x))
    wa, va = spec
    y = x @ va
    wb = np.einsum("ij,ij->j", y.conj(), gb @ y).real
    spread = np.abs(x) @ np.abs(va)
    bound = np.einsum("ij,ij->j", spread, (np.abs(ga) + np.abs(gb)) @ spread)
    snap = np.minimum(np.abs(wa + wb - 1.0) + rank_cut(2 * ga.shape[0], bound), 0.5)
    ends = [wa < snap, wa > 1.0 - snap]
    wa = np.select(ends, [0.0, 1.0], np.clip(wa, 0.0, 1.0))
    wb = np.select(ends, [1.0, 0.0], np.clip(wb, 0.0, 1.0))
    return jmat, spec.with_values(wa), wb


def geometric_mean(alpha: PositiveForm, beta: PositiveForm) -> PositiveForm:
    """Largest Hermitian form dominated by {alpha, beta}, J* (AB)^{1/2} J; symmetric.

    The mean of a direct sum is the sum of the means: on each joint summand
    each Gram is divided by 4^k, the largest power of 4 not above its largest
    entry with k >= -511, exactly, and the scaled pair's mean times 2^(k_alpha
    + k_beta), jointly homogeneous to roundoff, is written in place; no sum overflows.
    The loop over summands stays here, not in linalg.eigh, because each
    summand is scaled by its own power of 4 before its pair is diagonalised.
    """
    if alpha.dim != beta.dim:
        raise ShapeError(f"form dimensions differ: {alpha.dim} vs {beta.dim}")
    mean = np.zeros_like(alpha.gram, dtype=np.result_type(alpha.gram, beta.gram))
    for b in diagonal_blocks(alpha.gram, beta.gram):
        ga, gb = alpha.gram[b, b], beta.gram[b, b]
        # k >= -511 keeps 4^k normal: numpy divides complex by real through the reciprocal
        ks = [max((np.frexp(np.max(np.abs(g), initial=0.0))[1] - 1) // 2, -511) for g in (ga, gb)]
        jmat, spec, wb = _pair(ga / np.ldexp(1.0, 2 * ks[0]), gb / np.ldexp(1.0, 2 * ks[1]))
        middle = spectral_apply(spec, lambda a: np.sqrt(a * wb))
        mean[b, b] = hermitize(jmat.conj().T @ middle @ jmat) * np.ldexp(1.0, ks[0] + ks[1])
    return _positive_by_construction(mean)


def is_dominated(gamma: HermitianForm, alpha: PositiveForm, beta: PositiveForm) -> bool:
    """Exact block-PSD certificate for |gamma(x,y)|^2 <= alpha(x,x) beta(y,y).

    Equivalent to the contraction factorization G_c = G_a^{1/2} K G_b^{1/2}
    with ||K|| <= 1: [[G_a, G_c], [G_c*, G_b]] >= 0, its eigenvalues tested
    by is_psd.  The certificate is interleaved, row 2i from the first Gram's
    row i and row 2i + 1 from the second's, so each joint summand of the
    three Grams is contiguous and linalg.eigvalsh splits it.
    """
    if not (gamma.dim == alpha.dim == beta.dim):
        raise ShapeError("form dimensions differ")
    gc, n = gamma.gram, gamma.dim
    cert = np.array([[alpha.gram, gc], [gc.conj().T, beta.gram]])  # [a, b, i, j]
    return is_psd(eigvalsh(cert.transpose(2, 0, 3, 1).reshape(2 * n, 2 * n)))
