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

from .config import as_built, integer, rank_cut, real
from .errors import DomainError, InvalidCovariance, ShapeError, SolverFailed
from .forms import HermitianForm
from .linalg import built, close, eigh, eigvalsh, hermitian_part, hermitize, in_range, is_psd
from .linalg import real_if_exact


@dataclass(frozen=True, eq=False)
class PresymplecticSpace:
    """Real vector space with an antisymmetric bilinear form.

    sigma is antisymmetric exactly when i sigma is Hermitian, so it is read
    as i sigma by linalg.hermitian_part (ShapeError) and stored as the
    imaginary part of the result: (sigma - sigma^T) / 2, halved first.
    """

    sigma: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = real_if_exact(self.sigma)
        if np.iscomplexobj(s):
            raise ShapeError("presymplectic form must be real, got a nonzero imaginary part")
        if not np.isfinite(s).all():  # i * inf is NaN + inf i, refused before it is formed
            raise ShapeError("presymplectic form is not finite")
        h = hermitian_part(1j * s, "presymplectic form (as i sigma)", ShapeError)
        object.__setattr__(self, "sigma", built(np.ascontiguousarray(h.imag)))

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


class CovarianceForm(HermitianForm):
    """Hermitian form S(x, y) = x_bar^T S y on C^dim, a covariance candidate.

    Construction only enforces hermiticity; use validate_covariance to
    test positivity and the imaginary-part condition against a space.
    The Gram matrix is stored by linalg.real_if_exact, so a covariance
    with sigma = 0 is float64.
    """

    def __post_init__(self):
        m = hermitian_part(self.gram, "covariance matrix", InvalidCovariance)
        object.__setattr__(self, "gram", m)

    @property
    def matrix(self) -> np.ndarray:
        """The Gram matrix, under its earlier name."""
        return self.gram


def make_covariance(g: np.ndarray, sigma: np.ndarray) -> CovarianceForm:
    """Covariance (g + i sigma) / 2 from real g and sigma (else InvalidCovariance)."""
    g, sigma = real_if_exact(g), real_if_exact(sigma)
    if np.iscomplexobj(g) or np.iscomplexobj(sigma):
        raise InvalidCovariance("g and sigma must be real, got a nonzero imaginary part")
    return CovarianceForm(0.5 * (g + 1j * sigma))


def validate_covariance(s: CovarianceForm, space: PresymplecticSpace) -> bool:
    """True iff s is PSD and s - s^T = i sigma within tolerance."""
    if s.dim != space.dim:
        raise ShapeError(f"covariance dim {s.dim} does not match space dim {space.dim}")
    m = s.gram
    if not is_psd(eigvalsh(m)):
        return False
    return close(m - m.T - 1j * space.sigma)


def _require_valid(s: CovarianceForm, space: PresymplecticSpace, name: str) -> None:
    if not validate_covariance(s, space):
        raise InvalidCovariance(f"{name} is not a valid covariance for the given space")


def majorizing_inner_product(
    s: CovarianceForm, t: CovarianceForm, space: PresymplecticSpace
) -> np.ndarray:
    """Real PSD Gram (x|y) = 2 Re S(x,y) + 2 Re T(x,y) on the real space.

    Dominates the real parts of both covariances; its kernel is the
    degenerate directions that reduction removes.  Entries above about
    4e307 overflow to inf; reduce diagonalises its quarter instead.
    """
    _require_valid(s, space, "first covariance")
    _require_valid(t, space, "second covariance")
    return 2.0 * (np.real(s.gram) + np.real(t.gram))


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
    The kernel is read from one linalg.eigh of the product, each of its
    summands (its spectrum's layout) ranked on its own scale, in the spectrum's
    ascending order.  SolverFailed when the cut drops a direction sigma
    pairs: an eigenvalue too far below the largest of its summand to be
    told from 0.
    """
    _require_valid(s, space, "first covariance")
    _require_valid(t, space, "second covariance")
    # the majorizing product's quarter, halved before the sum so that no finite pair overflows
    spec = eigh(0.5 * np.real(s.gram) + 0.5 * np.real(t.gram))
    w, keep = spec.w, np.empty(space.dim, dtype=bool)
    for rows, vs, cols in spec.layout:
        keep[cols] = kept = in_range(w[cols])
        for j in np.flatnonzero(~kept.all(axis=1)):
            # sigma vanishes on the kernel up to eigh's roundoff, dim * EPS * the summand's cond
            wj = w[cols[j]][kept[j]]
            cond = float(wj[-1] / wj[0]) if wj.size else 1.0
            leak = float(np.max(np.abs(space.sigma[:, rows[j]] @ vs[j][:, ~kept[j]])))
            if leak > rank_cut(2 * space.dim, cond * float(np.max(np.abs(space.sigma)))):
                raise SolverFailed(
                    f"majorizing product too badly scaled: sigma {leak:.3e} on its kernel"
                )
    kernel_dim = int(np.sum(~keep))
    if kernel_dim == 0:
        return ReducedTriple(space, s, t, np.eye(space.dim), 0)
    q = spec.v[:, keep].T
    sigma_red = q @ space.sigma @ q.T
    # stored as built, as each reader would store them, with no check of what was just computed
    space_red = as_built(PresymplecticSpace, sigma=built(0.5 * sigma_red - 0.5 * sigma_red.T))
    forms = (as_built(CovarianceForm, gram=built(hermitize(q @ x.gram @ q.T))) for x in (s, t))
    return ReducedTriple(space_red, *forms, q, kernel_dim)


def quasifree_character(s: CovarianceForm, x: np.ndarray) -> float:
    """Character value exp(-S(x,x)/2) in (0, 1] for a real argument.

    Invariant under reduction: the value at x equals the reduced form's
    value at qx.
    """
    if not is_psd(eigvalsh(s.gram)):
        raise InvalidCovariance("covariance must be positive semidefinite")
    x = real_if_exact(x)
    if x.shape != (s.dim,) or np.iscomplexobj(x):
        raise ShapeError(f"argument must be a real vector of dim {s.dim}, got {x.shape} {x.dtype}")
    val = float(np.real(s(x, x)))
    return float(np.exp(-0.5 * max(val, 0.0)))


def thermal_amplitude(lam: float, mu: float) -> float:
    """Hellinger affinity of two geometric occupation distributions.

    sqrt((1-lam)(1-mu)) / (1 - sqrt(lam mu)); the limit of the lumped
    diagonal chain amplitudes with geometric weights.
    """
    lam, mu = real(lam, "lam", DomainError), real(mu, "mu", DomainError)
    if not (0.0 <= lam < 1.0 and 0.0 <= mu < 1.0):
        raise DomainError("parameters must lie in [0, 1)")
    return float(np.sqrt((1.0 - lam) * (1.0 - mu)) / (1.0 - np.sqrt(lam * mu)))


def geometric_weights(lam: float, n: int) -> np.ndarray:
    """Geometric distribution (1-lam) lam^k with the tail lumped at k = n-1."""
    lam = real(lam, "lam", DomainError)
    if not (0.0 <= lam < 1.0):
        raise DomainError("parameter must lie in [0, 1)")
    n = integer(n, "weight count", DomainError, 1)
    w = (1.0 - lam) * lam ** np.arange(n, dtype=float)
    w[n - 1] = lam ** (n - 1)
    return w
