"""Modular operators, modular conjugation, modular flow, and KMS checks.

Superoperators act on the Hilbert-Schmidt standard form of a block
algebra.  A Superoperator is a pair (L, R) of elements of the algebra,
acting as xi -> L xi R when linear and as xi -> L xi^* R when
antilinear, i.e. the adjoint xi^* = conj(xi)^T is the antilinear core
(the documented conjugation convention, chosen so the modular
conjugation is the pair (1, 1)).  All block arithmetic is the algebra's
own @ and adjoint.  Every power of a density is read from a held
spectrum by one function, _delta.
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
    evaluate,
    is_faithful,
)
from .config import as_built, complex_number, real
from .errors import DomainError, EmptyReduction, NotFaithful
from .linalg import in_range, power


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Structured map xi -> left xi right, or left xi^* right when antilinear, on the
    block Hilbert-Schmidt space; both factors are elements of one algebra."""

    left: BlockOperator
    right: BlockOperator
    antilinear: bool = False

    def __post_init__(self):
        if not (isinstance(self.left, BlockOperator) and isinstance(self.right, BlockOperator)):
            raise TypeError("superoperator factors must be BlockOperators")
        _check_algebra(self.left.algebra, self.right)

    @property
    def algebra(self) -> BlockAlgebra:
        return self.left.algebra

    def apply(self, xi):
        """Apply to a BlockOperator or L2Vector, returning the same type."""
        if not isinstance(xi, (BlockOperator, L2Vector)):
            raise TypeError(f"cannot apply a superoperator to {type(xi).__name__}")
        return self.left @ (xi.adjoint() if self.antilinear else xi) @ self.right

    def compose(self, other: "Superoperator") -> "Superoperator":
        """self after other; antilinear composed with antilinear is linear."""
        if not isinstance(other, Superoperator):
            raise TypeError(f"cannot compose a superoperator with {type(other).__name__}")
        if not self.antilinear:
            return Superoperator(self.left @ other.left, other.right @ self.right, other.antilinear)
        # self antilinear: xi -> L1 (other(xi))^* R1
        left, right = self.left @ other.right.adjoint(), other.left.adjoint() @ self.right
        return Superoperator(left, right, not other.antilinear)


def _require_faithful(phi: Functional, what: str = "functional") -> None:
    """NotFaithful unless phi has full rank; is_faithful raises NotPositive first."""
    if not is_faithful(phi):
        raise NotFaithful(f"{what} is not faithful; support_reduce it first")


def _delta(psi: Functional, phi: Functional, z: complex) -> Superoperator:
    """Delta^z from held spectra, for psi, phi checked positive and phi checked faithful."""
    left = BlockOperator._built(psi.algebra, tuple(power(s, z) for s in psi.spectrum()))
    right = BlockOperator._built(phi.algebra, tuple(power(s, -z) for s in phi.spectrum()))
    return Superoperator(left, right)


def relative_modular(psi: Functional, phi: Functional, z: complex = 1.0) -> Superoperator:
    """Power Delta^z of the relative modular operator, xi -> D_psi^z xi D_phi^{-z}.

    Delta is positive on the Hilbert-Schmidt space, and Delta^{1/2} maps
    x D_phi^{1/2} to D_psi^{1/2} x.  z is a finite number (DomainError); phi
    must be faithful, and a singular psi admits only a real z > 0 (NotFaithful).
    """
    z = complex_number(z, "power z", DomainError)
    _check_algebra(psi.algebra, phi)
    psi.require_positive()
    _require_faithful(phi, "second argument")
    if z.imag != 0.0 or z.real <= 0.0:
        _require_faithful(psi, "first argument")
    return _delta(psi, phi, z)


def modular_conjugation(phi: Functional) -> Superoperator:
    """Antilinear involution xi -> xi^* on each block."""
    _require_faithful(phi)
    one = phi.algebra.identity()
    return Superoperator(one, one, antilinear=True)


def modular_flow(phi: Functional, t: float, x: BlockOperator) -> BlockOperator:
    """Automorphism x -> D^{it} x D^{-it} generated by a faithful functional: Delta_phi^{it} x."""
    t = real(t, "time", DomainError)
    _check_algebra(phi.algebra, x)
    _require_faithful(phi)
    return _delta(phi, phi, 1j * t).apply(x)


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
    t = real(t, "time", DomainError)
    generator = phi if flow is None else flow
    _check_algebra(phi.algebra, x, y, generator)
    phi.require_positive()
    _require_faithful(generator, "flow generator")
    lhs = evaluate(phi, x @ _delta(generator, generator, 1j * (t - 1j)).apply(y))
    rhs = evaluate(phi, _delta(generator, generator, 1j * t).apply(y) @ x)
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
        kept = self.kept_blocks
        blocks = tuple(v.conj().T @ x.blocks[kept[i]] @ v for i, v in enumerate(self.isometries))
        return BlockOperator._built(self.algebra, blocks)


def support_reduce(phi: Functional) -> SupportReduction:
    """Compress every block to the range of its density, read from the held spectrum.

    Rank-zero blocks are dropped.  A kept block's isometry v holds the
    eigenvectors in_range keeps, and its reduced density is diag of their
    eigenvalues w, which v* D v equals up to roundoff.  The reduced
    functional is diagonalised on first use, one stacked 1 x 1 solve per
    block, which gives (w, I) exactly.  The compressed functional is
    faithful and evaluation is preserved on compressed elements.
    """
    phi.require_positive()
    kept, isometries, diagonals = [], [], []
    for k, (w, v) in enumerate(phi.spectrum()):
        keep = in_range(w)
        if keep.any():
            kept.append(k)
            isometries.append(v[:, keep])
            diagonals.append(w[keep])
    if not kept:
        raise EmptyReduction("zero functional has empty support")
    algebra = as_built(BlockAlgebra, block_dims=tuple(map(len, diagonals)))
    reduced = Functional._built(algebra, tuple(map(np.diag, diagonals)))
    return SupportReduction(algebra, reduced, tuple(isometries), tuple(kept), phi.algebra)
