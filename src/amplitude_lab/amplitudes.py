"""Square-root vectors, transition amplitudes, fidelity, and purification.

The transition amplitude between positive functionals is the inner
product of their square-root vectors, sum_k Tr(D_phi^{1/2} D_psi^{1/2});
for commuting (diagonal) densities it reduces to the Hellinger affinity
sum_i sqrt(p_i q_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    L2Vector,
    _check_same_algebra,
    functional_norm,
)
from .errors import NotFactor, NotQuotient, ShapeError
from .linalg import min_eig, psd_function, trace_norm


def sqrt_vector(phi: Functional) -> L2Vector:
    """Square-root vector of a positive functional, blockwise PSD root."""
    phi.require_positive()
    roots = tuple(psd_function(spec, np.sqrt) for spec in phi.spectrum())
    return L2Vector(phi.algebra, roots)


def transition_amplitude(phi: Functional, psi: Functional) -> float:
    """Inner product of square roots, sum_k Tr(D_phi^{1/2} D_psi^{1/2}).

    Symmetric in the arguments and contained in [0, sqrt(phi(1) psi(1))].
    Tiny negative roundoff is clamped to zero.
    """
    _check_same_algebra(phi, psi)
    return max(sqrt_vector(phi).inner(sqrt_vector(psi)).real, 0.0)


def amplitude_kernel(
    phi: Functional, psi: Functional, x: BlockOperator, y: BlockOperator
) -> complex:
    """Two-variable kernel sum_k Tr(D_phi^{1/2} x_k^* D_psi^{1/2} y_k).

    At x = y = 1 this is the transition amplitude; for x = y the value
    is real and nonnegative.
    """
    _check_same_algebra(phi, psi)
    _check_same_algebra(phi, x)
    _check_same_algebra(phi, y)
    root_p, root_q = sqrt_vector(phi), sqrt_vector(psi)
    total = 0.0 + 0.0j
    for rp, rq, xb, yb in zip(root_p.blocks, root_q.blocks, x.blocks, y.blocks):
        total += np.trace(rp @ xb.conj().T @ rq @ yb)
    return complex(total)


def uhlmann_fidelity(phi: Functional, psi: Functional) -> float:
    """Transition probability (sum_k ||D_phi^{1/2} D_psi^{1/2}||_1)^2.

    Computed from singular values of the root product, which is stabler
    than rooting the product matrix.
    """
    _check_same_algebra(phi, psi)
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
    concavity_ts: tuple[float, ...]

    def min_defect(self) -> float:
        vals = [self.lower_defect, self.upper_defect, self.concavity_min_eig]
        if self.sandwich_lower_defect is not None:
            vals += [self.sandwich_lower_defect, self.sandwich_upper_defect]
        return min(vals)


def inequality_suite(
    phi: Functional, psi: Functional, ts: Sequence[float] = (0.25, 0.5, 0.75)
) -> InequalityReport:
    """Check the norm chain, the fidelity sandwich, and root concavity.

    The chain ||phi^{1/2} - psi^{1/2}||^2 <= ||phi - psi|| <=
    ||phi^{1/2} - psi^{1/2}|| ||phi^{1/2} + psi^{1/2}|| holds for any
    positive pair; amplitude^2 <= fidelity <= amplitude needs states.
    Concavity is reported as the smallest eigenvalue of
    (t phi + (1-t) psi)^{1/2} - t phi^{1/2} - (1-t) psi^{1/2} over the
    sampled t.  Each square root is taken once.
    """
    _check_same_algebra(phi, psi)
    root_p, root_q = sqrt_vector(phi), sqrt_vector(psi)
    amp = max(root_p.inner(root_q).real, 0.0)
    diff = root_p - root_q
    total = root_p + root_q
    root_diff_sq = diff.inner(diff).real
    root_sum = total.norm()
    dist = functional_norm(phi - psi)
    lower_defect = dist - root_diff_sq
    upper_defect = np.sqrt(max(root_diff_sq, 0.0)) * root_sum - dist

    is_state_pair = abs(phi.mass - 1.0) <= phi.tol.num and abs(psi.mass - 1.0) <= psi.tol.num
    if is_state_pair:
        fid = _root_fidelity(root_p, root_q)
        sandwich_lower = fid - amp * amp
        sandwich_upper = amp - fid
    else:
        fid = None
        sandwich_lower = None
        sandwich_upper = None

    conc = np.inf
    for t in ts:
        root_mix = sqrt_vector(t * phi + (1.0 - t) * psi)
        for rm, rp, rq in zip(root_mix.blocks, root_p.blocks, root_q.blocks):
            conc = min(conc, min_eig(rm - t * rp - (1.0 - t) * rq))

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
        concavity_ts=tuple(ts),
    )


def purify(phi: Functional) -> Functional:
    """Rank-one extension of a single-block state to the doubled algebra.

    The result lives on M_{n^2} with density |vec(D^{1/2})><vec(D^{1/2})|
    (column-stacking vec).  Evaluating it on purification_op(a, b)
    reproduces Tr(D^{1/2} a D^{1/2} b); for states the amplitude between
    two purifications is the squared amplitude of the original pair.
    """
    if phi.algebra.num_blocks != 1:
        raise NotFactor("purification needs a functional on a single matrix block")
    v = sqrt_vector(phi).blocks[0].flatten(order="F")
    density = np.outer(v, v.conj())
    return Functional(BlockAlgebra((v.size,)), (density,), phi.tol)


def purification_op(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix on the doubled space representing a paired with opposite b.

    With column-stacking vec, the pair acts as vec(X) -> vec(a X b), so
    the matrix is kron(b.T, a); the second factor enters through its
    transpose (the documented opposite-algebra convention).
    """
    return np.kron(np.asarray(b).T, np.asarray(a))


@dataclass(frozen=True)
class QuotientMap:
    """Surjective unital *-homomorphism given by block selection.

    assignment[l] is the source block that image block l copies; every
    other source block is killed.  The assignment must be injective with
    matching block dimensions.
    """

    source: BlockAlgebra
    image: BlockAlgebra
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.assignment) != self.image.num_blocks:
            raise NotQuotient("assignment length must match the image block count")
        seen = set()
        for l, k in enumerate(self.assignment):
            if not (0 <= k < self.source.num_blocks):
                raise NotQuotient(f"assignment index {k} out of range")
            if k in seen:
                raise NotQuotient("assignment must be injective for surjectivity")
            seen.add(k)
            if self.source.block_dims[k] != self.image.block_dims[l]:
                raise NotQuotient(
                    f"block dimension mismatch: source {self.source.block_dims[k]} "
                    f"vs image {self.image.block_dims[l]}"
                )

    def apply(self, x: BlockOperator) -> BlockOperator:
        """Image pi(x): image block l is the selected source block."""
        if x.algebra != self.source:
            raise ShapeError("operator does not live on the source algebra")
        return BlockOperator(self.image, tuple(x.blocks[k] for k in self.assignment))


def pullback_along_quotient(pi: QuotientMap, phi: Functional) -> Functional:
    """Pull a functional on the image back to the source, phi o pi.

    Densities land on the selected source blocks, zero elsewhere;
    transition amplitudes are preserved exactly.
    """
    if phi.algebra != pi.image:
        raise ShapeError("functional does not live on the image algebra")
    blocks = [np.zeros((n, n), dtype=complex) for n in pi.source.block_dims]
    for l, k in enumerate(pi.assignment):
        blocks[k] = np.array(phi.densities[l])
    return Functional(pi.source, tuple(blocks), phi.tol)
