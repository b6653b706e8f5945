"""Covariance forms on real presymplectic spaces and their reduction.

A covariance form is a Hermitian PSD matrix S on the complexification
whose antisymmetric imaginary part matches half the presymplectic form:
S - S^T = i sigma.  The associated character x -> exp(-S(x,x)/2) is
invariant under quotienting out the kernel of the majorizing inner
product, and the thermal closed form gives the Hellinger affinity of two
geometric occupation distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, Tolerances, rank_cut
from .errors import DomainError, InvalidCovariance, ShapeError
from .linalg import eigh, eigvalsh, hermitian_part, is_psd

__all__ = [
    "PresymplecticSpace",
    "CovarianceForm",
    "ReducedTriple",
    "make_covariance",
    "validate_covariance",
    "majorizing_inner_product",
    "reduce",
    "quasifree_character",
    "thermal_amplitude",
    "geometric_weights",
]


@dataclass(frozen=True, eq=False)
class PresymplecticSpace:
    """Real vector space with an antisymmetric bilinear form."""

    sigma: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self):
        s = np.array(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ShapeError(f"presymplectic form must be square, got {s.shape}")
        scale = float(np.max(np.abs(s))) if s.size else 0.0
        if s.size and float(np.max(np.abs(s + s.T))) > self.tol.psd(scale):
            raise ShapeError("presymplectic form is not antisymmetric within tolerance")
        s = 0.5 * (s - s.T)
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True, eq=False)
class CovarianceForm:
    """Hermitian sesquilinear form S(x, y) = x_bar^T S y on C^dim.

    Construction only enforces hermiticity; use validate_covariance to
    test positivity and the imaginary-part condition against a space.
    """

    matrix: np.ndarray = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"covariance matrix must be square, got {m.shape}")
        m = hermitian_part(m, self.tol, "covariance matrix", InvalidCovariance)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.conj(x) @ self.matrix @ y)


def make_covariance(g: np.ndarray, sigma: np.ndarray) -> CovarianceForm:
    """Covariance (g + i sigma) / 2 from a real symmetric part g."""
    return CovarianceForm(0.5 * (np.asarray(g, dtype=float) + 1j * np.asarray(sigma, dtype=float)))


def validate_covariance(s: CovarianceForm, space: PresymplecticSpace) -> bool:
    """True iff s is PSD and s - s^T = i sigma within tolerance."""
    if s.dim != space.dim:
        raise ShapeError(f"covariance dim {s.dim} does not match space dim {space.dim}")
    m = s.matrix
    if not is_psd(eigvalsh(m), s.tol):
        return False
    gap = m - m.T - 1j * space.sigma
    return float(np.max(np.abs(gap))) <= s.tol.num if gap.size else True


def _require_valid(s: CovarianceForm, space: PresymplecticSpace, name: str) -> None:
    if not validate_covariance(s, space):
        raise InvalidCovariance(f"{name} is not a valid covariance for the given space")


def majorizing_inner_product(
    s: CovarianceForm, t: CovarianceForm, space: PresymplecticSpace
) -> np.ndarray:
    """Real PSD Gram (x|y) = 2 Re S(x,y) + 2 Re T(x,y) on the real space.

    Dominates the real parts of both covariances; its kernel is the
    degenerate directions that reduction removes.
    """
    _require_valid(s, space, "first covariance")
    _require_valid(t, space, "second covariance")
    g = 2.0 * (np.real(s.matrix) + np.real(t.matrix))
    return 0.5 * (g + g.T)


@dataclass(frozen=True, eq=False)
class ReducedTriple:
    """Quotient data from cutting the kernel of the majorizing product."""

    space: PresymplecticSpace
    s_form: CovarianceForm
    t_form: CovarianceForm
    quotient: np.ndarray = field(repr=False)
    kernel_dim: int


def reduce(
    space: PresymplecticSpace, s: CovarianceForm, t: CovarianceForm
) -> ReducedTriple:
    """Quotient out the kernel of the majorizing inner product.

    The returned quotient matrix q maps old coordinates to the reduced
    space with S(x, y) = S'(qx, qy) exactly (the kernel lies inside the
    kernels of S, T, and sigma), and the reduced covariances are again
    valid for the reduced presymplectic form.  When the majorizing
    product is nondegenerate the input is returned with q = identity.
    """
    gram = majorizing_inner_product(s, t, space)
    w, v = eigh(gram)
    lam = float(np.max(np.abs(w))) if w.size else 0.0
    keep = w > rank_cut(space.dim, lam)
    kernel_dim = int(np.sum(~keep))
    if kernel_dim == 0:
        return ReducedTriple(space, s, t, np.eye(space.dim), 0)
    q = np.real(v[:, keep]).T
    sigma_red = q @ space.sigma @ q.T
    s_red = CovarianceForm(q @ s.matrix @ q.T, s.tol)
    t_red = CovarianceForm(q @ t.matrix @ q.T, t.tol)
    return ReducedTriple(
        PresymplecticSpace(sigma_red, space.tol), s_red, t_red, q, kernel_dim
    )


def quasifree_character(s: CovarianceForm, x: np.ndarray) -> float:
    """Character value exp(-S(x,x)/2) in (0, 1] for a real argument.

    Invariant under reduction: the value at x equals the reduced form's
    value at qx.
    """
    if not is_psd(eigvalsh(s.matrix), s.tol):
        raise InvalidCovariance("covariance must be positive semidefinite")
    x = np.asarray(x, dtype=float)
    if x.shape != (s.dim,):
        raise ShapeError(f"argument shape {x.shape} does not match dim {s.dim}")
    val = float(np.real(s(x, x)))
    return float(np.exp(-0.5 * max(val, 0.0)))


def thermal_amplitude(lam: float, mu: float) -> float:
    """Hellinger affinity of two geometric occupation distributions.

    sqrt((1-lam)(1-mu)) / (1 - sqrt(lam mu)); the limit of the lumped
    diagonal chain amplitudes with geometric weights.
    """
    if not (0.0 <= lam < 1.0 and 0.0 <= mu < 1.0):
        raise DomainError("parameters must lie in [0, 1)")
    return float(np.sqrt((1.0 - lam) * (1.0 - mu)) / (1.0 - np.sqrt(lam * mu)))


def geometric_weights(lam: float, n: int) -> np.ndarray:
    """Geometric distribution (1-lam) lam^k with the tail lumped at k = n-1."""
    if not (0.0 <= lam < 1.0):
        raise DomainError("parameter must lie in [0, 1)")
    if n < 1:
        raise DomainError("need at least one weight")
    w = (1.0 - lam) * lam ** np.arange(n, dtype=float)
    w[n - 1] = lam ** (n - 1)
    return w
