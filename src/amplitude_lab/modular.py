"""Modular operators, modular conjugation, modular flow, and KMS checks.

Superoperators act on the block Hilbert-Schmidt space.  The structured
representation (L, R) means xi -> L xi R for linear maps; antilinear
maps act as xi -> L xi^* R, i.e. the adjoint xi^* = conj(xi)^T is the
antilinear core (this is the documented conjugation convention, chosen
so the modular conjugation is the structured pair (I, I)).  Every power
of a density is read from a held spectrum by one function, _delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BlockAlgebra,
    BlockOperator,
    Functional,
    L2Vector,
    _check_algebra,
    _hold_spectrum,
    evaluate,
    is_faithful,
)
from .errors import EmptyReduction, NotFaithful, NotPositive
from .linalg import frozen, in_range, power


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Structured (left, right) map on the block Hilbert-Schmidt space.

    Each factor is stored by linalg.real_if_exact.
    """

    algebra: BlockAlgebra
    left: tuple[np.ndarray, ...] = field(repr=False)
    right: tuple[np.ndarray, ...] = field(repr=False)
    antilinear: bool = False

    def __post_init__(self):
        dims = self.algebra.block_dims
        for side in ("left", "right"):
            factors = zip(dims, getattr(self, side), strict=True)
            stored = tuple(frozen(f, (n, n), f"{side} factor") for n, f in factors)
            object.__setattr__(self, side, stored)

    @classmethod
    def identity(cls, algebra: BlockAlgebra) -> "Superoperator":
        eyes = tuple(np.eye(n) for n in algebra.block_dims)
        return cls(algebra, eyes, eyes)

    def apply(self, xi):
        """Apply to a BlockOperator or L2Vector, returning the same type."""
        if not isinstance(xi, (BlockOperator, L2Vector)):
            raise TypeError(f"cannot apply a superoperator to {type(xi).__name__}")
        _check_algebra(self.algebra, xi)
        cores = (b.conj().T for b in xi.blocks) if self.antilinear else xi.blocks
        blocks = tuple(l @ b @ r for l, b, r in zip(self.left, cores, self.right))
        return type(xi)(xi.algebra, blocks)

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other; antilinear composed with antilinear is linear."""
        if not isinstance(other, Superoperator):
            raise TypeError(f"cannot compose a superoperator with {type(other).__name__}")
        _check_algebra(self.algebra, other)
        if not self.antilinear:
            left = tuple(l1 @ l2 for l1, l2 in zip(self.left, other.left))
            right = tuple(r2 @ r1 for r1, r2 in zip(self.right, other.right))
            return Superoperator(self.algebra, left, right, other.antilinear)
        # self antilinear: xi -> L1 (other(xi))^* R1
        left = tuple(l1 @ r2.conj().T for l1, r2 in zip(self.left, other.right))
        right = tuple(l2.conj().T @ r1 for r1, l2 in zip(self.right, other.left))
        return Superoperator(self.algebra, left, right, not other.antilinear)

    def to_matrices(self) -> tuple[np.ndarray, ...]:
        """Dense n_k^2 x n_k^2 blocks acting on column-stacked vectorizations."""
        if self.antilinear:
            raise NotPositive("dense export is defined for linear maps only")
        return tuple(np.kron(r.T, l) for l, r in zip(self.left, self.right))


def _require_faithful(phi: Functional, what: str = "functional") -> None:
    if not is_faithful(phi):
        raise NotFaithful(f"{what} is not faithful; support_reduce it first")


def _delta(psi: Functional, phi: Functional, z: complex) -> Superoperator:
    """Delta^z from held spectra, for psi, phi checked positive and phi checked faithful."""
    left = tuple(power(s, z) for s in psi.spectrum())
    right = tuple(power(s, -z) for s in phi.spectrum())
    return Superoperator(phi.algebra, left, right)


def relative_modular(psi: Functional, phi: Functional, z: complex = 1.0) -> Superoperator:
    """Power Delta^z of the relative modular operator, xi -> D_psi^z xi D_phi^{-z}.

    Delta is positive on the Hilbert-Schmidt space, and Delta^{1/2} maps
    x D_phi^{1/2} to D_psi^{1/2} x.  phi must be faithful; a singular psi
    admits only a real z > 0 (else NotFaithful).
    """
    _check_algebra(psi.algebra, phi)
    phi.require_positive()
    psi.require_positive()
    _require_faithful(phi, "second argument")
    z = complex(z)
    if z.imag != 0.0 or z.real <= 0.0:
        _require_faithful(psi, "first argument")
    return _delta(psi, phi, z)


def modular_conjugation(phi: Functional) -> Superoperator:
    """Antilinear involution xi -> xi^* on each block."""
    phi.require_positive()
    _require_faithful(phi)
    eyes = tuple(np.eye(n) for n in phi.algebra.block_dims)
    return Superoperator(phi.algebra, eyes, eyes, antilinear=True)


def modular_flow(phi: Functional, t: float, x: BlockOperator) -> BlockOperator:
    """Automorphism x -> D^{it} x D^{-it} generated by a faithful functional: Delta_phi^{it} x."""
    _check_algebra(phi.algebra, x)
    phi.require_positive()
    _require_faithful(phi)
    return _delta(phi, phi, 1j * complex(t)).apply(x)


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
    generator = phi if flow is None else flow
    _check_algebra(phi.algebra, x, y, generator)
    phi.require_positive()
    generator.require_positive()
    _require_faithful(generator, "flow generator")
    lhs = evaluate(phi, x @ _delta(generator, generator, 1j * (t - 1j)).apply(y))
    rhs = evaluate(phi, _delta(generator, generator, 1j * complex(t)).apply(y) @ x)
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
        _check_algebra(self.source, x)
        blocks = tuple(
            v.conj().T @ x.blocks[k] @ v for k, v in zip(self.kept_blocks, self.isometries)
        )
        return BlockOperator(self.algebra, blocks)


def support_reduce(phi: Functional) -> SupportReduction:
    """Compress every block to the range of its density, read from the held spectrum.

    Rank-zero blocks are dropped.  A kept block's isometry v holds the
    eigenvectors in_range keeps, and its reduced density is diag of their
    eigenvalues w, which v* D v equals up to roundoff; it keeps (w, I) as
    its spectrum.  The compressed functional is faithful and evaluation is
    preserved on compressed elements.
    """
    phi.require_positive()
    kept, isometries, spectra = [], [], []
    for k, (w, v) in enumerate(phi.spectrum()):
        keep = in_range(w)
        if keep.any():
            kept.append(k)
            isometries.append(v[:, keep])
            spectra.append((w[keep], np.eye(int(keep.sum()))))
    if not kept:
        raise EmptyReduction("zero functional has empty support")
    algebra = BlockAlgebra(tuple(len(w) for w, _ in spectra))
    reduced = Functional(algebra, tuple(np.diag(w) for w, _ in spectra))
    _hold_spectrum(reduced, tuple(spectra))
    return SupportReduction(algebra, reduced, tuple(isometries), tuple(kept), phi.algebra)
