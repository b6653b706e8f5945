"""Modular operators, modular conjugation, modular flow, and KMS checks.

Superoperators act on the block Hilbert-Schmidt space.  The structured
representation (L, R) means xi -> L xi R for linear maps; antilinear
maps act as xi -> L xi^* R, i.e. the adjoint xi^* = conj(xi)^T is the
antilinear core (this is the documented conjugation convention, chosen
so the modular conjugation is the structured pair (I, I)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    _check_same_algebra,
    _support_isometries,
    evaluate,
    is_faithful,
)
from .config import DEFAULT_TOL
from .errors import EmptyReduction, NotFaithful, NotPositive, ShapeError
from .linalg import check_psd, eigh, hermitize, psd_function, unitary_power


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Structured (left, right) map on the block Hilbert-Schmidt space."""

    algebra: BlockAlgebra
    left: tuple[np.ndarray, ...] = field(repr=False)
    right: tuple[np.ndarray, ...] = field(repr=False)
    antilinear: bool = False

    def __post_init__(self):
        frozen_l, frozen_r = [], []
        for n, l, r in zip(self.algebra.block_dims, self.left, self.right, strict=True):
            l = np.array(l, dtype=complex)
            r = np.array(r, dtype=complex)
            if l.shape != (n, n) or r.shape != (n, n):
                raise ShapeError("superoperator factor shapes do not match the algebra")
            l.setflags(write=False)
            r.setflags(write=False)
            frozen_l.append(l)
            frozen_r.append(r)
        object.__setattr__(self, "left", tuple(frozen_l))
        object.__setattr__(self, "right", tuple(frozen_r))

    @classmethod
    def identity(cls, algebra: BlockAlgebra) -> "Superoperator":
        eyes = tuple(np.eye(n, dtype=complex) for n in algebra.block_dims)
        return cls(algebra, eyes, eyes)

    def apply(self, xi):
        """Apply to a BlockOperator or L2Vector, returning the same type."""
        _check_same_algebra(self, xi)
        if self.antilinear:
            blocks = tuple(
                l @ b.conj().T @ r for l, b, r in zip(self.left, xi.blocks, self.right)
            )
        else:
            blocks = tuple(l @ b @ r for l, b, r in zip(self.left, xi.blocks, self.right))
        return type(xi)(xi.algebra, blocks)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other; antilinear composed with antilinear is linear."""
        _check_same_algebra(self, other)
        if not self.antilinear:
            left = tuple(l1 @ l2 for l1, l2 in zip(self.left, other.left))
            right = tuple(r2 @ r1 for r1, r2 in zip(self.right, other.right))
            return Superoperator(self.algebra, left, right, other.antilinear)
        # self antilinear: xi -> L1 (other(xi))^* R1
        left = tuple(l1 @ r2.conj().T for l1, r2 in zip(self.left, other.right))
        right = tuple(l2.conj().T @ r1 for r1, l2 in zip(self.right, other.left))
        return Superoperator(self.algebra, left, right, not other.antilinear)

    def power(self, z: complex) -> "Superoperator":
        """Power of a structured map with Hermitian PSD factors.

        Zero eigenvalues are admitted only for real exponents with
        positive real part (0^z = 0), on factors that pass is_psd;
        anything else needs a strictly positive factor.
        """
        if self.antilinear:
            raise NotPositive("powers are defined for linear positive superoperators only")
        zc = complex(z)

        def power(h):
            spec = eigh(hermitize(h))
            if zc.imag == 0.0 and zc.real > 0.0:
                check_psd(spec[0], DEFAULT_TOL, "superoperator factor")
                return psd_function(spec, lambda w: np.power(w, zc.real))
            return unitary_power(spec, zc, cut=0.0)

        left = tuple(power(l) for l in self.left)
        right = tuple(power(r) for r in self.right)
        return Superoperator(self.algebra, left, right)

    def to_matrices(self) -> tuple[np.ndarray, ...]:
        """Dense n_k^2 x n_k^2 blocks acting on column-stacked vectorizations."""
        if self.antilinear:
            raise NotPositive("dense export is defined for linear maps only")
        return tuple(np.kron(r.T, l) for l, r in zip(self.left, self.right))


def _require_faithful(phi: Functional, what: str = "functional") -> None:
    if not is_faithful(phi):
        raise NotFaithful(f"{what} is not faithful; support_reduce it first")


def _inverse_density(phi: Functional) -> tuple[np.ndarray, ...]:
    return tuple(unitary_power(s, -1.0, cut) for cut, s in zip(phi.rank_cuts(), phi.spectrum()))


def relative_modular(psi: Functional, phi: Functional) -> Superoperator:
    """Relative modular operator xi -> D_psi xi D_phi^{-1}.

    Positive as an operator on the Hilbert-Schmidt space; its square
    root maps x D_phi^{1/2} to D_psi^{1/2} x.
    """
    _check_same_algebra(psi, phi)
    phi.require_positive()
    psi.require_positive()
    _require_faithful(phi, "second argument")
    return Superoperator(phi.algebra, tuple(psi.densities), _inverse_density(phi))


def modular_conjugation(phi: Functional) -> Superoperator:
    """Antilinear involution xi -> xi^* on each block."""
    phi.require_positive()
    _require_faithful(phi)
    eyes = tuple(np.eye(n, dtype=complex) for n in phi.algebra.block_dims)
    return Superoperator(phi.algebra, eyes, eyes, antilinear=True)


def modular_flow(phi: Functional, t: float, x: BlockOperator) -> BlockOperator:
    """Automorphism x -> D^{it} x D^{-it} generated by a faithful functional."""
    _check_same_algebra(phi, x)
    phi.require_positive()
    _require_faithful(phi)
    return _flow_at(phi, complex(t), x)


def _flow_at(phi: Functional, z: complex, x: BlockOperator) -> BlockOperator:
    """Flow at a complex time, x -> D^{iz} x D^{-iz}, from the cached spectrum."""
    blocks = []
    for cut, spec, b in zip(phi.rank_cuts(), phi.spectrum(), x.blocks):
        blocks.append(unitary_power(spec, 1j * z, cut) @ b @ unitary_power(spec, -1j * z, cut))
    return BlockOperator(phi.algebra, tuple(blocks))


def kms_defect(
    phi: Functional,
    x: BlockOperator,
    y: BlockOperator,
    t: float,
    flow: Functional | None = None,
) -> float:
    """|phi(x sigma_{t-i}(y)) - phi(sigma_t(y) x)| for the modular flow.

    With flow=None the flow is generated by phi itself, in which case
    the boundary identity is exact up to roundoff.  Passing a different
    faithful functional as `flow` checks phi against a foreign flow (the
    defect is then strictly positive unless the densities commute).
    """
    _check_same_algebra(phi, x)
    _check_same_algebra(phi, y)
    phi.require_positive()
    generator = phi if flow is None else flow
    _check_same_algebra(phi, generator)
    generator.require_positive()
    _require_faithful(generator, "flow generator")
    y_shifted = _flow_at(generator, t - 1j, y)
    y_flowed = _flow_at(generator, complex(t), y)
    lhs = evaluate(phi, x @ y_shifted)
    rhs = evaluate(phi, y_flowed @ x)
    return abs(lhs - rhs)


@dataclass(frozen=True, eq=False)
class SupportReduction:
    """Result of compressing an algebra to the support of a functional."""

    algebra: BlockAlgebra
    functional: Functional
    isometries: tuple[np.ndarray, ...] = field(repr=False)
    kept_blocks: tuple[int, ...]
    source: BlockAlgebra

    def compress(self, x: BlockOperator) -> BlockOperator:
        """Compress an element of the original algebra to the support."""
        if x.algebra != self.source:
            raise ShapeError("operator does not live on the original algebra")
        blocks = tuple(
            v.conj().T @ x.blocks[k] @ v for k, v in zip(self.kept_blocks, self.isometries)
        )
        return BlockOperator(self.algebra, blocks)


def support_reduce(phi: Functional) -> SupportReduction:
    """Compress every block to the range of its density.

    Rank-zero blocks are dropped; the compressed functional is faithful
    and evaluation is preserved on compressed elements.
    """
    isometries = []
    kept = []
    dims = []
    densities = []
    for k, (v, d) in enumerate(zip(_support_isometries(phi), phi.densities)):
        r = v.shape[1]
        if r == 0:
            continue
        isometries.append(v)
        kept.append(k)
        dims.append(r)
        densities.append(hermitize(v.conj().T @ d @ v))
    if not dims:
        raise EmptyReduction("zero functional has empty support")
    algebra = BlockAlgebra(tuple(dims))
    reduced = Functional(algebra, tuple(densities), phi.tol)
    return SupportReduction(
        algebra=algebra,
        functional=reduced,
        isometries=tuple(isometries),
        kept_blocks=tuple(kept),
        source=phi.algebra,
    )
