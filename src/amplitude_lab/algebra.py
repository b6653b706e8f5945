"""Block *-algebras, positive functionals, and the Hilbert-Schmidt space.

The ambient algebra is a finite direct sum of full complex matrix blocks
M_{n_1} (+) ... (+) M_{n_m}.  Elements, functionals and square-root
vectors all carry one complex n_k x n_k matrix per block.  Everything is
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOL, Tolerances, rank_cut
from .errors import InvalidAlgebra, NotPositive, ShapeError
from .linalg import Spectrum, eigh, hermitian_part, is_psd


def _square(arr: np.ndarray, n: int) -> np.ndarray:
    if arr.shape != (n, n):
        raise ShapeError(f"block shape {arr.shape} does not match dimension {n}")
    return arr


def _frozen_blocks(blocks: Iterable[np.ndarray], dims: Sequence[int]):
    out = []
    for n, b in zip(dims, blocks, strict=True):
        arr = _square(np.array(b, dtype=complex), n)
        arr.setflags(write=False)
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class BlockAlgebra:
    """Finite direct sum of full matrix blocks, described by its dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_dims) == 0:
            raise InvalidAlgebra("algebra needs at least one block")
        if any(int(n) < 1 for n in self.block_dims):
            raise InvalidAlgebra(f"block dimensions must be >= 1, got {self.block_dims}")
        object.__setattr__(self, "block_dims", tuple(int(n) for n in self.block_dims))

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def element_dim(self) -> int:
        """Total complex dimension of the algebra, sum of n_k^2."""
        return int(sum(n * n for n in self.block_dims))

    @property
    def space_dim(self) -> int:
        """Dimension of the underlying Hilbert space, sum of n_k."""
        return int(sum(self.block_dims))

    def identity(self) -> "BlockOperator":
        return BlockOperator(self, tuple(np.eye(n, dtype=complex) for n in self.block_dims))

    def zero_functional(self) -> "Functional":
        return Functional(self, tuple(np.zeros((n, n), dtype=complex) for n in self.block_dims))


def make_algebra(dims: Sequence[int]) -> BlockAlgebra:
    """Build the block algebra with the given block side lengths."""
    return BlockAlgebra(tuple(dims))


def _check_same_algebra(a, b) -> None:
    if a.algebra != b.algebra:
        raise ShapeError(f"algebra mismatch: {a.algebra.block_dims} vs {b.algebra.block_dims}")


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Element of a block algebra: one complex matrix per block."""

    algebra: BlockAlgebra
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", _frozen_blocks(self.blocks, self.algebra.block_dims))

    def adjoint(self) -> "BlockOperator":
        return BlockOperator(self.algebra, tuple(b.conj().T for b in self.blocks))

    def __add__(self, other: "BlockOperator") -> "BlockOperator":
        _check_same_algebra(self, other)
        return BlockOperator(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "BlockOperator") -> "BlockOperator":
        _check_same_algebra(self, other)
        return BlockOperator(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, c: complex) -> "BlockOperator":
        return BlockOperator(self.algebra, tuple(c * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            _check_same_algebra(self, other)
            return BlockOperator(
                self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks))
            )
        if isinstance(other, L2Vector):
            _check_same_algebra(self, other)
            return L2Vector(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return NotImplemented

    def norm(self) -> float:
        """Operator (spectral) norm, the max over blocks."""
        return max(float(np.linalg.norm(b, 2)) if b.size else 0.0 for b in self.blocks)


@dataclass(frozen=True, eq=False)
class Functional:
    """Linear functional with one Hermitian density matrix per block.

    Values are phi(x) = sum_k Tr(D_k x_k).  Densities may be signed (for
    differences phi - psi); positivity is checked only by the operations
    that need it.

    Everything computed from a density (scale, positivity, rank, support,
    roots, powers, inverse, flow) reads one eigendecomposition per block,
    taken on first use by spectrum() and kept.  The densities are
    immutable, so it cannot go stale; arithmetic on functionals builds a
    new Functional, which starts without one.
    """

    algebra: BlockAlgebra
    densities: tuple[np.ndarray, ...] = field(repr=False)
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False, compare=False)
    _spectrum: tuple[Spectrum, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        blocks = []
        for n, d in zip(self.algebra.block_dims, self.densities, strict=True):
            # asarray copies only to change the dtype; the Hermitian part is a
            # new array and kills roundoff drift before any eigendecomposition
            h = hermitian_part(_square(np.asarray(d, dtype=complex), n), self.tol, "density block")
            h.setflags(write=False)
            blocks.append(h)
        object.__setattr__(self, "densities", tuple(blocks))

    @property
    def mass(self) -> float:
        """Value on the identity, phi(1)."""
        return float(sum(np.trace(d).real for d in self.densities))

    def spectrum(self) -> tuple[Spectrum, ...]:
        """Read-only (w, v) = linalg.eigh(D_k) per block, eigenvalues ascending.

        v is real for a block whose imaginary part is exactly zero.
        """
        if self._spectrum is None:
            spec = tuple(eigh(d) for d in self.densities)
            for w, v in spec:
                w.setflags(write=False)
                v.setflags(write=False)
            object.__setattr__(self, "_spectrum", spec)
        return self._spectrum

    def scale_max(self) -> float:
        """Largest |eigenvalue| over all blocks; the functional's scale."""
        return max(float(np.max(np.abs(w))) for w, _ in self.spectrum())

    def rank_cuts(self) -> list[float]:
        """Per-block rank cuts on the functional's scale, scale_max()."""
        lam = self.scale_max()
        return [rank_cut(n, lam) for n in self.algebra.block_dims]

    def is_positive(self) -> bool:
        """The one positivity test of a functional: is_psd on every block's eigenvalues."""
        return is_psd(np.concatenate([w for w, _ in self.spectrum()]), self.tol)

    def require_positive(self, what: str = "functional") -> None:
        if not self.is_positive():
            raise NotPositive(f"{what} is not positive semidefinite within tolerance")

    def block_masses(self) -> np.ndarray:
        return np.array([float(np.trace(d).real) for d in self.densities])

    def __add__(self, other: "Functional") -> "Functional":
        _check_same_algebra(self, other)
        return Functional(
            self.algebra, tuple(a + b for a, b in zip(self.densities, other.densities)), self.tol
        )

    def __sub__(self, other: "Functional") -> "Functional":
        _check_same_algebra(self, other)
        return Functional(
            self.algebra, tuple(a - b for a, b in zip(self.densities, other.densities)), self.tol
        )

    def __mul__(self, c: float) -> "Functional":
        return Functional(self.algebra, tuple(c * d for d in self.densities), self.tol)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class L2Vector:
    """Vector in the Hilbert-Schmidt standard space of a block algebra.

    Inner product <xi|eta> = sum_k Tr(xi_k^* eta_k), conjugate-linear in
    the first argument.
    """

    algebra: BlockAlgebra
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", _frozen_blocks(self.blocks, self.algebra.block_dims))

    def inner(self, other: "L2Vector") -> complex:
        _check_same_algebra(self, other)
        return complex(
            sum(np.sum(a.conj() * b) for a, b in zip(self.blocks, other.blocks))
        )

    def norm(self) -> float:
        return float(np.sqrt(max(self.inner(self).real, 0.0)))

    def adjoint(self) -> "L2Vector":
        return L2Vector(self.algebra, tuple(b.conj().T for b in self.blocks))

    def __add__(self, other: "L2Vector") -> "L2Vector":
        _check_same_algebra(self, other)
        return L2Vector(self.algebra, tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "L2Vector") -> "L2Vector":
        _check_same_algebra(self, other)
        return L2Vector(self.algebra, tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __mul__(self, c: complex) -> "L2Vector":
        return L2Vector(self.algebra, tuple(c * b for b in self.blocks))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, BlockOperator):
            _check_same_algebra(self, other)
            return L2Vector(self.algebra, tuple(a @ b for a, b in zip(self.blocks, other.blocks)))
        return NotImplemented


class StateRelation(enum.Enum):
    DISJOINT = "disjoint"
    QUASI_EQUIVALENT = "quasi_equivalent"
    NEITHER = "neither"


def evaluate(phi: Functional, x: BlockOperator) -> complex:
    """Value phi(x) = sum_k Tr(D_k x_k)."""
    _check_same_algebra(phi, x)
    return complex(sum(np.trace(d @ b) for d, b in zip(phi.densities, x.blocks)))


def functional_norm(phi: Functional) -> float:
    """Dual norm on the predual: the sum of blockwise trace norms.

    Densities may be signed, so this computes ||phi - psi|| when applied
    to a difference.
    """
    return float(sum(np.sum(np.abs(w)) for w, _ in phi.spectrum()))


def _block_component(phi: Functional, k: int, mass: float) -> Functional:
    """D_k / mass as a functional on M_{n_k}, with spectrum (w / mass, v) from phi's.

    Dividing by a positive mass keeps the eigenvectors and the ascending
    order, so the component needs no eigendecomposition of its own.
    """
    w, v = phi.spectrum()[k]
    algebra = BlockAlgebra((phi.algebra.block_dims[k],))
    comp = Functional(algebra, (phi.densities[k] / mass,), phi.tol)
    w = w / mass
    w.setflags(write=False)
    object.__setattr__(comp, "_spectrum", ((w, v),))
    return comp


def _support_isometries(phi: Functional) -> tuple[np.ndarray, ...]:
    """Orthonormal columns spanning the range of each density.

    Eigenvalues strictly above the rank cut of the functional's global
    scale count toward the rank.
    """
    phi.require_positive()
    return tuple(v[:, w > cut] for cut, (w, v) in zip(phi.rank_cuts(), phi.spectrum()))


def support_projection(phi: Functional) -> BlockOperator:
    """Blockwise orthogonal projection onto the range of each density.

    This is the minimal projection p with phi(1 - p) = 0.
    """
    return BlockOperator(phi.algebra, tuple(v @ v.conj().T for v in _support_isometries(phi)))


def central_support(phi: Functional) -> BlockOperator:
    """Central projection: the identity on every block carrying mass."""
    phi.require_positive()
    cut = phi.tol.psd(phi.scale_max())
    blocks = []
    for n, (w, _) in zip(phi.algebra.block_dims, phi.spectrum()):
        on = float(np.sum(np.abs(w))) > cut
        blocks.append(np.eye(n, dtype=complex) if on else np.zeros((n, n), dtype=complex))
    return BlockOperator(phi.algebra, tuple(blocks))


def _central_pattern(phi: Functional) -> np.ndarray:
    z = central_support(phi)
    return np.array([bool(np.trace(b).real > 0.5) for b in z.blocks])


def classify_pair(phi: Functional, psi: Functional) -> StateRelation:
    """Disjoint (orthogonal central supports), quasi-equivalent (equal), or neither."""
    _check_same_algebra(phi, psi)
    zp = _central_pattern(phi)
    zq = _central_pattern(psi)
    if not np.any(zp & zq):
        return StateRelation.DISJOINT
    if np.array_equal(zp, zq):
        return StateRelation.QUASI_EQUIVALENT
    return StateRelation.NEITHER


def total_rank(phi: Functional) -> int:
    return sum(v.shape[1] for v in _support_isometries(phi))


def is_pure(phi: Functional) -> bool:
    """True when the densities have total rank one."""
    return total_rank(phi) == 1


def is_faithful(phi: Functional) -> bool:
    """True when every density has full rank."""
    return total_rank(phi) == phi.algebra.space_dim
