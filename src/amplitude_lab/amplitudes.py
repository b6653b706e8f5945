"""Square-root vectors, transition amplitudes, fidelity, and purification.

The transition amplitude between positive functionals is the inner
product of their square-root vectors, sum_k Tr(D_phi^{1/2} D_psi^{1/2});
for commuting (diagonal) densities it reduces to the Hellinger affinity
sum_i sqrt(p_i q_i).  Maps between block algebras, and the pullbacks
along them under which the amplitude can only grow, are in restriction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    L2Vector,
    _check_algebra,
    functional_norm,
)
from .config import MAX_CHAIN_DIM, as_built
from .errors import NotFactor, TooLarge
from .linalg import close, eigvalsh, hermitize, power, trace_norm


def sqrt_vector(phi: Functional) -> L2Vector:
    """Square-root vector of a positive functional, blockwise PSD root."""
    phi.require_positive()
    roots = tuple(power(spec, 0.5) for spec in phi.spectrum())
    return L2Vector._built(phi.algebra, roots)


def transition_amplitude(phi: Functional, psi: Functional) -> float:
    """Inner product of square roots, sum_k Tr(D_phi^{1/2} D_psi^{1/2}).

    Symmetric in the arguments and contained in [0, sqrt(phi(1) psi(1))].
    Tiny negative roundoff is clamped to zero.
    """
    _check_algebra(phi.algebra, psi)
    return max(sqrt_vector(phi).inner(sqrt_vector(psi)).real, 0.0)


def amplitude_kernel(
    phi: Functional, psi: Functional, x: BlockOperator, y: BlockOperator
) -> complex:
    """Two-variable kernel <x xi_phi, xi_psi y> of the square-root vectors in the standard
    form, sum_k Tr(D_phi^{1/2} x_k^* D_psi^{1/2} y_k).

    At x = y = 1 this is the transition amplitude; for x = y the value
    is real and nonnegative.
    """
    _check_algebra(phi.algebra, psi, x, y)
    return (x @ sqrt_vector(phi)).inner(sqrt_vector(psi) @ y)


def uhlmann_fidelity(phi: Functional, psi: Functional) -> float:
    """Transition probability (sum_k ||D_phi^{1/2} D_psi^{1/2}||_1)^2.

    Computed from singular values of the root product, which is stabler
    than rooting the product matrix.
    """
    _check_algebra(phi.algebra, psi)
    return _root_fidelity(sqrt_vector(phi), sqrt_vector(psi))


def _root_fidelity(root_p: L2Vector, root_q: L2Vector) -> float:
    total = 0.0
    for rp, rq in zip(root_p.blocks, root_q.blocks):
        total += trace_norm(rp @ rq)
    return total * total


@dataclass(frozen=True)
class InequalityReport:
    """Signed defects of the norm and fidelity inequalities for a pair.

    Every defect is the satisfied-by margin: nonnegative (up to roundoff)
    when the inequality holds.  The fidelity sandwich entries are None
    unless both functionals are states.
    """

    amplitude: float
    fidelity: float | None
    root_difference_sq: float
    predual_distance: float
    root_sum_norm: float
    lower_defect: float
    upper_defect: float
    sandwich_lower_defect: float | None
    sandwich_upper_defect: float | None
    concavity_min_eig: float

    def min_defect(self) -> float:
        vals = [self.lower_defect, self.upper_defect, self.concavity_min_eig]
        if self.sandwich_lower_defect is not None:
            vals += [self.sandwich_lower_defect, self.sandwich_upper_defect]
        return float(np.min(vals))


def inequality_suite(phi: Functional, psi: Functional) -> InequalityReport:
    """Check the norm chain, the fidelity sandwich, and root concavity.

    The chain ||phi^{1/2} - psi^{1/2}||^2 <= ||phi - psi|| <=
    ||phi^{1/2} - psi^{1/2}|| ||phi^{1/2} + psi^{1/2}|| holds for any
    positive pair; amplitude^2 <= fidelity <= amplitude needs states.
    Concavity is reported as the smallest eigenvalue of
    (t phi + (1-t) psi)^{1/2} - t phi^{1/2} - (1-t) psi^{1/2} over
    t = 1/4, 1/2, 3/4.  Each square root is taken once.
    """
    _check_algebra(phi.algebra, psi)
    root_p, root_q = sqrt_vector(phi), sqrt_vector(psi)
    amp = max(root_p.inner(root_q).real, 0.0)
    diff = root_p - root_q
    total = root_p + root_q
    root_diff_sq = diff.inner(diff).real
    root_sum = total.norm()
    dist = functional_norm(phi - psi)
    lower_defect = dist - root_diff_sq
    upper_defect = np.sqrt(max(root_diff_sq, 0.0)) * root_sum - dist

    if close([phi.mass - 1.0, psi.mass - 1.0]):
        fid = _root_fidelity(root_p, root_q)
        sandwich_lower = fid - amp * amp
        sandwich_upper = amp - fid
    else:
        fid = None
        sandwich_lower = None
        sandwich_upper = None

    conc = np.inf
    for t in (0.25, 0.5, 0.75):
        gap = sqrt_vector(t * phi + (1.0 - t) * psi) - t * root_p - (1.0 - t) * root_q
        conc = min(conc, *(float(eigvalsh(hermitize(g))[0]) for g in gap.blocks))

    return InequalityReport(
        amplitude=amp,
        fidelity=fid,
        root_difference_sq=float(root_diff_sq),
        predual_distance=dist,
        root_sum_norm=float(root_sum),
        lower_defect=float(lower_defect),
        upper_defect=float(upper_defect),
        sandwich_lower_defect=sandwich_lower,
        sandwich_upper_defect=sandwich_upper,
        concavity_min_eig=float(conc),
    )


def purify(phi: Functional) -> Functional:
    """Rank-one extension of a single-block state to the doubled algebra.

    The result lives on M_{n^2} with density |vec(D^{1/2})><vec(D^{1/2})|
    (column-stacking vec).  Evaluating it on purification_op(a, b)
    reproduces Tr(D^{1/2} a D^{1/2} b); for states the amplitude between
    two purifications is the squared amplitude of the original pair.
    The doubled side n^2 may not exceed MAX_CHAIN_DIM (TooLarge).
    """
    if phi.algebra.num_blocks != 1:
        raise NotFactor("purification needs a functional on a single matrix block")
    n = phi.algebra.block_dims[0]
    if n * n > MAX_CHAIN_DIM:
        raise TooLarge(f"purification side {n}^2 = {n * n} is above MAX_CHAIN_DIM = {MAX_CHAIN_DIM}")
    v = sqrt_vector(phi).blocks[0].flatten(order="F")
    half = np.outer(v, v.conj())
    half *= 0.5  # hermitize's halving, in place: its bits, with one n^4 temporary less
    density = half + half.conj().T
    return Functional._built(as_built(BlockAlgebra, block_dims=(v.size,)), (density,))


def purification_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix on the doubled space representing a paired with opposite b.

    With column-stacking vec, the pair acts as vec(X) -> vec(a X b), so
    the matrix is kron(b.T, a); the second factor enters through its
    transpose (the documented opposite-algebra convention).
    """
    return np.kron(np.asarray(b).T, np.asarray(a))
