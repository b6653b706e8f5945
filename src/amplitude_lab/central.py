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

from .algebra import BlockAlgebra, Functional, _block_component, _check_algebra
from .amplitudes import transition_amplitude
from .config import as_built, sequence
from .errors import DomainError, SingularMeasure
from .linalg import close, is_psd, real_if_exact


@dataclass(frozen=True, eq=False)
class StateDecomposition:
    """Weighted family of block states reassembling a functional.

    weights[k] * radon_nikodym[k] * components[k] summed over blocks
    recovers each block's positive part: its density less the
    eigenvalues linalg.in_range drops.  Blocks of rank 0 carry the
    normalized trace as a placeholder component (their weight is 0).
    """

    algebra: BlockAlgebra
    weights: np.ndarray = field(repr=False)
    components: tuple[Functional, ...]
    radon_nikodym: np.ndarray = field(repr=False)

    def reassemble(self) -> Functional:
        scales = (float(w * r) for w, r in zip(self.weights, self.radon_nikodym))
        densities = tuple(c * comp.densities[0] for c, comp in zip(scales, self.components))
        return Functional._built(self.algebra, densities)


def probability_vector(p, name: str, length: int | None = None) -> np.ndarray:
    """p, read by linalg.real_if_exact, clipped at 0, once it is checked to be a distribution.

    Entries must be real and finite and pass linalg.is_psd, and their sum
    less 1 must pass linalg.close; the vector must be nonempty, and of the
    given length when one is given.
    """
    p = real_if_exact(p)
    if p.ndim != 1 or p.size == 0 or length not in (None, p.size) or np.iscomplexobj(p):
        of_length = "" if length is None else f" of length {length}"
        raise DomainError(f"{name} must be a nonempty real vector{of_length}")
    if not np.all(np.isfinite(p)):
        raise DomainError(f"{name} must be finite")
    if not is_psd(p) or not close(float(np.sum(p)) - 1.0):
        raise DomainError(f"{name} is not a probability distribution")
    return np.maximum(p, 0.0)


def _positive_parts(phi: Functional) -> tuple[list, np.ndarray]:
    """Each block's (component, mass) pair, and the masses; phi positive."""
    phi.require_positive()
    parts = [_block_component(phi, k) for k in range(phi.algebra.num_blocks)]
    return parts, np.array([mass for _, mass in parts])


def decompose(phi: Functional, mu: Sequence[float] | None = None) -> StateDecomposition:
    """Split a state into block components against atomic central weights.

    A block's component is its positive part over that part's trace,
    the block's mass.  With mu omitted, the weights are these masses
    over their sum.  Explicit weights must not vanish on a block of
    nonzero rank.
    """
    return _decomposition(phi, *_positive_parts(phi), mu)


def _decomposition(
    phi: Functional, parts: list, masses: np.ndarray, mu: Sequence[float] | None
) -> StateDecomposition:
    """decompose(phi, mu) from phi's _positive_parts."""
    total = float(np.sum(masses))
    if total <= 0.0:
        raise DomainError("cannot decompose the zero functional")
    if mu is None:
        weights = masses / total
    else:
        weights = probability_vector(mu, "weight vector", phi.algebra.num_blocks)
        for k, m in enumerate(masses):
            if m > 0.0 and weights[k] <= 0.0:
                raise SingularMeasure(f"weight vanishes on block {k} carrying mass {m:.3e}")
    components = tuple(component for component, _ in parts)
    radon = np.divide(masses, weights, out=np.zeros_like(masses), where=masses > 0.0)
    return StateDecomposition(
        algebra=phi.algebra,
        weights=weights,
        components=components,
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
    omitted the weights are the sums of the two states' block masses,
    the traces of their positive parts, over their total, which is
    admissible for both arguments.
    """
    return amplitude_sum_terms(phi, psi, mu)[2]


def amplitude_sum_terms(
    phi: Functional, psi: Functional, mu: Sequence[float] | None = None
) -> tuple[np.ndarray, list[float], AmplitudeSumCheck]:
    """Weights, each block's component amplitude and the sum check; one decompose per state."""
    _check_algebra(phi.algebra, psi)
    parts_p, masses_p = _positive_parts(phi)
    parts_q, masses_q = _positive_parts(psi)
    if mu is None:
        masses = masses_p + masses_q
        total = float(np.sum(masses))
        if total <= 0.0:
            raise DomainError("both functionals are zero")
        mu = masses / total
    dp = _decomposition(phi, parts_p, masses_p, mu)
    dq = _decomposition(psi, parts_q, masses_q, mu)
    amps = [transition_amplitude(p, q) for p, q in zip(dp.components, dq.components)]
    rhs = 0.0
    for k, a_k in enumerate(amps):
        # one root per factor: their product overflows for a tiny weight, underflows for a tiny mass
        scale = dp.weights[k] * np.sqrt(dp.radon_nikodym[k]) * np.sqrt(dq.radon_nikodym[k])
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
    components = tuple(sequence(components, "components", DomainError))
    if not components:
        raise DomainError("need at least one component")
    mu = probability_vector(mu, "weight vector", len(components))
    for comp in components:
        comp.require_positive()
    algebra = as_built(BlockAlgebra, block_dims=sum((c.algebra.block_dims for c in components), ()))
    densities = tuple(w * d for w, comp in zip(mu, components) for d in comp.densities)
    return algebra, Functional._built(algebra, densities)
