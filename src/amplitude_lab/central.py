"""Discrete central decomposition of states and the amplitude sum formula.

Measures over the center are atomic here: a weight vector over the
blocks.  A state splits into normalized block components with scalar
Radon-Nikodym densities, and the transition amplitude of a pair is the
weighted sum of componentwise amplitudes, independently of the chosen
admissible weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import BlockAlgebra, Functional, _block_component, _check_same_algebra
from .amplitudes import transition_amplitude
from .errors import DomainError, SingularMeasure


@dataclass(frozen=True, eq=False)
class StateDecomposition:
    """Weighted family of block states reassembling a functional.

    weights[k] * radon_nikodym[k] * components[k] summed over blocks
    recovers the original densities.  Blocks without mass carry the
    normalized trace as a placeholder component (their density is 0).
    """

    algebra: BlockAlgebra
    weights: np.ndarray = field(repr=False)
    components: tuple[Functional, ...]
    radon_nikodym: np.ndarray = field(repr=False)

    def reassemble(self) -> Functional:
        densities = []
        for k, comp in enumerate(self.components):
            c = float(self.weights[k] * self.radon_nikodym[k])
            densities.append(c * comp.densities[0])
        return Functional(self.algebra, tuple(densities), self.components[0].tol)


def probability_vector(p, name: str, length: int | None = None) -> np.ndarray:
    """p as a float vector clipped at 0, once it is checked to be a distribution.

    Entries must be finite and >= -1e-12 and sum to 1 within 1e-9; the
    vector must be nonempty, and of the given length when one is given.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0 or length not in (None, p.size):
        of_length = "" if length is None else f" of length {length}"
        raise DomainError(f"{name} must be a nonempty vector{of_length}")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} must be finite")
    if np.any(p < -1e-12) or abs(float(np.sum(p)) - 1.0) > 1e-9:
        raise DomainError(f"{name} is not a probability distribution")
    return np.maximum(p, 0.0)


def decompose(phi: Functional, mu: Sequence[float] | None = None) -> StateDecomposition:
    """Split a state into block components against atomic central weights.

    With mu omitted, the weights are the central masses of phi itself.
    Explicit weights must not vanish on a block where phi carries mass.
    """
    phi.require_positive()
    masses = phi.block_masses()
    total = float(np.sum(masses))
    if total <= 0.0:
        raise DomainError("cannot decompose the zero functional")
    cut = phi.tol.psd(phi.scale_max())
    if mu is None:
        weights = masses / total
    else:
        weights = probability_vector(mu, "weight vector", phi.algebra.num_blocks)
        for k, m in enumerate(masses):
            if m > cut and weights[k] <= 0.0:
                raise SingularMeasure(f"weight vanishes on block {k} carrying mass {m:.3e}")
    components = []
    radon = np.zeros(phi.algebra.num_blocks)
    for k, n in enumerate(phi.algebra.block_dims):
        if masses[k] > cut:
            components.append(_block_component(phi, k, masses[k]))
            radon[k] = masses[k] / weights[k]
        else:
            trace = np.eye(n, dtype=complex) / n
            components.append(Functional(BlockAlgebra((n,)), (trace,), phi.tol))
            radon[k] = 0.0
    return StateDecomposition(
        algebra=phi.algebra,
        weights=weights,
        components=tuple(components),
        radon_nikodym=radon,
    )


class AmplitudeSumCheck(NamedTuple):
    lhs: float
    rhs: float
    defect: float


def amplitude_sum_check(
    phi: Functional, psi: Functional, mu: Sequence[float] | None = None
) -> AmplitudeSumCheck:
    """Compare the amplitude against its central decomposition sum.

    rhs = sum_k mu_k sqrt(r_phi[k] r_psi[k]) * amplitude(phi_k, psi_k);
    the value does not depend on the admissible weight choice.  With mu
    omitted the central mass of the average state is used, which is
    admissible for both arguments.
    """
    return amplitude_sum_terms(phi, psi, mu)[2]


def amplitude_sum_terms(
    phi: Functional, psi: Functional, mu: Sequence[float] | None = None
) -> tuple[np.ndarray, list[float], AmplitudeSumCheck]:
    """Weights, each block's component amplitude and the sum check; one decompose per state."""
    _check_same_algebra(phi, psi)
    if mu is None:
        avg = 0.5 * (phi + psi)
        masses = avg.block_masses()
        total = float(np.sum(masses))
        if total <= 0.0:
            raise DomainError("both functionals are zero")
        mu = masses / total
    dp = decompose(phi, mu)
    dq = decompose(psi, mu)
    amps = [transition_amplitude(p, q) for p, q in zip(dp.components, dq.components)]
    rhs = 0.0
    for k, a_k in enumerate(amps):
        scale = dp.weights[k] * np.sqrt(dp.radon_nikodym[k] * dq.radon_nikodym[k])
        if scale > 0.0:
            rhs += scale * a_k
    lhs = transition_amplitude(phi, psi)
    check = AmplitudeSumCheck(lhs=lhs, rhs=float(rhs), defect=abs(lhs - float(rhs)))
    return dp.weights, amps, check


def integrate_disjoint_family(
    components: Sequence[Functional], mu: Sequence[float]
) -> tuple[BlockAlgebra, Functional]:
    """Assemble a weighted direct sum of states on a direct-sum algebra.

    Component k contributes its blocks with densities scaled by mu[k];
    decompose inverts the construction when the components are single
    blocks.
    """
    if len(components) == 0:
        raise DomainError("need at least one component")
    mu = probability_vector(mu, "weight vector", len(components))
    dims: list[int] = []
    densities: list[np.ndarray] = []
    for w, comp in zip(mu, components):
        comp.require_positive()
        dims.extend(comp.algebra.block_dims)
        densities.extend(w * d for d in comp.densities)
    algebra = BlockAlgebra(tuple(dims))
    return algebra, Functional(algebra, tuple(densities), components[0].tol)
