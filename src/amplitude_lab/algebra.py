"""Block *-algebras, positive functionals, and the Hilbert-Schmidt space.

The ambient algebra is a finite direct sum of full complex matrix blocks
M_{n_1} (+) ... (+) M_{n_m}.  Elements, functionals and square-root
vectors all carry one n_k x n_k matrix per block, stored by linalg.built:
float64 when its imaginary part is exactly zero, complex128 otherwise, read
first (_stored) when a caller gives it, not when built here (_built).
Everything is immutable after construction and all operations are pure
functions of their arguments and the tolerances in force (config.tolerances).
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import as_built, integer, sequence
from .errors import InvalidAlgebra, NotPositive, ShapeError, SolverFailed
from .linalg import (
    Spectrum,
    _lapack,
    built,
    eigh,
    eigvalsh,
    frozen,
    hermitian_part,
    hermitize,
    in_range,
    is_psd,
    spectral_apply,
)


@dataclass(frozen=True)
class BlockAlgebra:
    """Finite direct sum of full matrix blocks, described by its dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        sides = enumerate(sequence(self.block_dims, "block sides", InvalidAlgebra))
        dims = tuple(integer(n, f"block {k} side", InvalidAlgebra, 1) for k, n in sides)
        if not dims:
            raise InvalidAlgebra("algebra needs at least one block")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def space_dim(self) -> int:
        """Dimension of the underlying Hilbert space, sum of n_k."""
        return int(sum(self.block_dims))

    def identity(self) -> "BlockOperator":
        return BlockOperator._built(self, tuple(np.eye(n) for n in self.block_dims))

    def zero_functional(self) -> "Functional":
        return Functional._built(self, tuple(np.zeros((n, n)) for n in self.block_dims))


def make_algebra(dims: Sequence[int]) -> BlockAlgebra:
    """Build the block algebra with the given block side lengths."""
    return BlockAlgebra(dims)


def _check_algebra(algebra: BlockAlgebra, *xs) -> None:
    """The one algebra check: ShapeError unless every x lives on algebra."""
    for x in xs:
        if x.algebra != algebra:
            raise ShapeError(f"algebra mismatch: {algebra.block_dims} vs {x.algebra.block_dims}")


@dataclass(frozen=True, eq=False)
class _BlockTuple:
    """One matrix per block of an algebra, read by _stored (linalg.frozen), with blockwise + - *.

    The scalar rule, HermitianForm's too: * takes a Python or numpy number only, and
    with __array_ufunc__ = None an ndarray is a TypeError in either order.
    """

    algebra: BlockAlgebra
    blocks: tuple[np.ndarray, ...] = field(repr=False)
    __array_ufunc__ = None

    def __post_init__(self):
        dims, blocks = self.algebra.block_dims, tuple(sequence(self.blocks, "blocks", ShapeError))
        if len(blocks) != len(dims):
            raise ShapeError(f"{len(blocks)} blocks given for the algebra {dims}")
        object.__setattr__(self, "blocks", tuple(self._stored(b, n) for n, b in zip(dims, blocks)))

    @staticmethod
    def _stored(b, n: int) -> np.ndarray:
        return frozen(b, (n, n), "block")

    @classmethod
    def _built(cls, algebra: BlockAlgebra, blocks):
        """New blocks built here, stored by linalg.built."""
        return as_built(cls, algebra=algebra, blocks=tuple(map(built, blocks)))

    def adjoint(self):
        return self._built(self.algebra, tuple(b.conj().T for b in self.blocks))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_algebra(self.algebra, other)
        return self._built(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_algebra(self.algebra, other)
        return self._built(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, c: complex):
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return self._built(self.algebra, tuple(c * b for b in self.blocks))

    __rmul__ = __mul__


class BlockOperator(_BlockTuple):
    """Element of a block algebra: one matrix per block, real when exactly real."""

    def __matmul__(self, other):
        """Operator @ operator is an operator, operator @ vector a vector."""
        if not isinstance(other, (BlockOperator, L2Vector)):
            return NotImplemented
        _check_algebra(self.algebra, other)
        return other._built(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))

    def norm(self) -> float:
        """Operator (spectral) norm, the largest singular value over blocks."""
        return max(float(_lapack("svd", b, compute_uv=False)[0]) for b in self.blocks)


@dataclass(frozen=True, eq=False)
class Functional(_BlockTuple):
    """Linear functional with one Hermitian density matrix per block.

    Values are phi(x) = sum_k Tr(D_k x_k).  Densities may be signed (for
    differences phi - psi); positivity is checked only by the operations
    that need it.  A density is stored as float64 when its imaginary part
    is exactly zero (linalg.real_if_exact), and everything computed from
    it then runs in real arithmetic.

    Everything computed from a density (positivity, rank, support,
    roots, powers, inverse, flow) reads one eigendecomposition per block,
    taken on first use by spectrum() and kept, unless its builder gave it
    (_built).  The densities are immutable, so it cannot go stale;
    arithmetic on functionals builds a new Functional, which starts without one.
    """

    _spectrum: tuple[Spectrum, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @staticmethod
    def _stored(d, n: int) -> np.ndarray:
        # the Hermitian part kills roundoff drift before any eigendecomposition
        return hermitian_part(d, "density block", n=n)

    @classmethod
    def _built(cls, algebra: BlockAlgebra, blocks, spectrum: tuple[Spectrum, ...] | None = None):
        """Densities built here, exactly Hermitian, stored by linalg.built once finite, and their
        spectrum if the builder knows it."""
        blocks = tuple(map(built, blocks))
        if not all(np.isfinite(b).all() for b in blocks):
            raise NotPositive("density block is not finite")  # arithmetic overflowed, or NaN
        return as_built(cls, algebra=algebra, blocks=blocks, _spectrum=spectrum)

    def __mul__(self, c: complex):
        # c D for a non-real c is Hermitian only within slack, so it is read as a caller's
        if isinstance(c, numbers.Number) and np.imag(c) != 0:
            return type(self)(self.algebra, tuple(c * b for b in self.blocks))
        return super().__mul__(c)

    __rmul__ = __mul__

    @property
    def densities(self) -> tuple[np.ndarray, ...]:
        return self.blocks

    @property
    def mass(self) -> float:
        """Value on the identity, phi(1)."""
        return float(sum(np.trace(d).real for d in self.densities))

    def spectrum(self) -> tuple[Spectrum, ...]:
        """Read-only (w, v) = linalg.eigh(D_k) per block, eigenvalues ascending.

        v is real for a block whose imaginary part is exactly zero; eigh
        splits each block at its direct-sum pattern, and a split block's v
        is assembled only when it is read.
        """
        if self._spectrum is None:
            object.__setattr__(self, "_spectrum", tuple(eigh(d) for d in self.densities))
        return self._spectrum

    def is_positive(self) -> bool:
        """The one positivity test of a functional: is_psd on every block's eigenvalues."""
        return is_psd(np.concatenate([spec.w for spec in self.spectrum()]))

    def require_positive(self) -> None:
        if not self.is_positive():
            raise NotPositive("functional is not positive semidefinite within tolerance")

    def block_masses(self) -> np.ndarray:
        return np.array([float(np.trace(d).real) for d in self.densities])


class L2Vector(_BlockTuple):
    """Vector in the Hilbert-Schmidt standard space of a block algebra.

    Inner product <xi|eta> = sum_k Tr(xi_k^* eta_k), conjugate-linear in
    the first argument.
    """

    def inner(self, other: "L2Vector") -> complex:
        _check_algebra(self.algebra, other)
        with np.errstate(over="ignore"):  # a sum past the float range is inf, and says so
            return complex(sum(np.sum(a.conj() * b) for a, b in zip(self.blocks, other.blocks)))

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def __matmul__(self, other):
        """Vector @ operator is a vector."""
        if not isinstance(other, BlockOperator):
            return NotImplemented
        _check_algebra(self.algebra, other)
        return self._built(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))


class StateRelation(enum.Enum):
    DISJOINT = "disjoint"
    QUASI_EQUIVALENT = "quasi_equivalent"
    NEITHER = "neither"


def evaluate(phi: Functional, x: BlockOperator) -> complex:
    """Value phi(x) = sum_k Tr(D_k x_k)."""
    _check_algebra(phi.algebra, x)
    return complex(sum(np.trace(d @ b) for d, b in zip(phi.densities, x.blocks)))


def functional_norm(phi: Functional) -> float:
    """Dual norm on the predual: the sum of blockwise trace norms.

    Densities may be signed, so this computes ||phi - psi|| when applied
    to a difference.  It needs eigenvalues only, so it takes eigvalsh per
    block and neither reads nor fills the spectrum phi keeps.  A sum past the
    float range is inf, silently.
    """
    spectra = [eigvalsh(d) for d in phi.densities]
    with np.errstate(over="ignore"):
        return float(sum(np.sum(np.abs(w)) for w in spectra))


def _block_component(phi: Functional, k: int) -> tuple[Functional, float]:
    """Block k's positive part over its mass m, as a functional on M_{n_k}, and m.

    The positive part is D_k less the eigenvalues in_range drops, and m
    = Tr D_k less their sum is its trace; a block that drops none keeps
    D_k and m = Tr D_k.  A block of rank 0 gives the normalized trace, a
    placeholder, and m = 0; an m that overflows is SolverFailed.  The
    component is built with phi's spectrum, the dropped eigenvalues set to
    0, over m: that keeps the eigenvectors, their layout and the ascending
    order, so it needs no eigendecomposition of its own.  Its density is
    hermitized, as the difference need not be exactly Hermitian.
    """
    spec = phi.spectrum()[k]
    w = spec.w
    keep, n = in_range(w), phi.algebra.block_dims[k]
    algebra = as_built(BlockAlgebra, block_dims=(n,))
    if not keep.any():
        return Functional._built(algebra, (np.eye(n) / n,)), 0.0
    d, dropped = phi.densities[k], np.where(keep, 0.0, w)
    with np.errstate(over="ignore"):  # an overflowing trace is refused just below
        mass = float(np.trace(d).real) - float(np.sum(dropped))
    if not np.isfinite(mass):
        raise SolverFailed(f"block {k} has mass {mass}: finite input too large")
    if not keep.all():
        d = d - spectral_apply(spec, lambda x: np.where(keep, 0.0, x))
    # numpy divides complex by real through the reciprocal, inf for a subnormal m: scale, exactly
    s = np.ldexp(1.0, max(-1021 - np.frexp(mass)[1], 0))
    held = (spec.with_values((w - dropped) / mass),)
    return Functional._built(algebra, (hermitize(d * s / (mass * s)),), held), mass


def _ranks(phi: Functional) -> np.ndarray:
    """The rank of each density: the eigenvalues in_range counts, read from the held spectrum."""
    phi.require_positive()
    return np.array([np.count_nonzero(in_range(spec.w)) for spec in phi.spectrum()])


def support_projection(phi: Functional) -> BlockOperator:
    """Blockwise orthogonal projection onto the range of each density.

    This is the minimal projection p with phi(1 - p) = 0.  A one-summand
    spectrum's is u u* for the eigenvectors u in range; a split one's is
    built from its layout, summand by summand (spectral_apply of the
    in_range mask), so a side-1 summand's is its mask bit on the diagonal
    and no dense eigenvector matrix is read.
    """
    phi.require_positive()
    return BlockOperator._built(phi.algebra, tuple(map(_projection, phi.spectrum())))


def _projection(spec: Spectrum) -> np.ndarray:
    if spec.layout[0][0].shape[1] < len(spec.w):  # split
        return spectral_apply(spec, lambda w: in_range(w).astype(float))
    u = spec.v[:, in_range(spec.w)]
    return u @ u.conj().T


def central_support(phi: Functional) -> BlockOperator:
    """Central cover of the support: the identity on every block of nonzero rank."""
    blocks = tuple(np.eye(n) * bool(r) for n, r in zip(phi.algebra.block_dims, _ranks(phi)))
    return BlockOperator._built(phi.algebra, blocks)


def classify_pair(phi: Functional, psi: Functional) -> StateRelation:
    """Disjoint (orthogonal central supports), quasi-equivalent (equal), or neither."""
    _check_algebra(phi.algebra, psi)
    zp, zq = (_ranks(f) > 0 for f in (phi, psi))
    if not np.any(zp & zq):
        return StateRelation.DISJOINT
    if np.array_equal(zp, zq):
        return StateRelation.QUASI_EQUIVALENT
    return StateRelation.NEITHER


def total_rank(phi: Functional) -> int:
    return int(_ranks(phi).sum())


def is_pure(phi: Functional) -> bool:
    """True when the densities have total rank one."""
    return total_rank(phi) == 1


def is_faithful(phi: Functional) -> bool:
    """True when every density has full rank."""
    return total_rank(phi) == phi.algebra.space_dim
