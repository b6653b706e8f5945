"""Seeded random instance generators for tests and the self-test suite."""

from __future__ import annotations

import numpy as np

from .algebra import BlockAlgebra, BlockOperator, Functional
from .config import rank_cut
from .linalg import eigh, hermitize, unitary_power
from .restriction import UcpMap, UnitalEmbedding


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    """Random PSD matrix; a smaller rank gives a degenerate one."""
    r = n if rank is None else rank
    a = random_complex(rng, (n, r))
    return hermitize(a @ a.conj().T)


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    d = random_psd(rng, n, rank)
    return d / np.trace(d).real


def random_state(
    rng: np.random.Generator, algebra: BlockAlgebra, rank_deficient: bool = False
) -> Functional:
    """Random state: PSD block densities with total mass one."""
    mats = []
    for n in algebra.block_dims:
        rank = None
        if rank_deficient and n > 1:
            rank = int(rng.integers(1, n + 1))
        mats.append(random_psd(rng, n, rank))
    total = sum(np.trace(m).real for m in mats)
    return Functional(algebra, tuple(m / total for m in mats))


def random_operator(rng: np.random.Generator, algebra: BlockAlgebra) -> BlockOperator:
    return BlockOperator(algebra, tuple(random_complex(rng, (n, n)) for n in algebra.block_dims))


def random_gibbs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gibbs density exp(-H)/Z for a random Hermitian H; always faithful."""
    h = hermitize(random_complex(rng, (n, n)))
    w, v = eigh(h)
    g = (v * np.exp(-w)) @ v.conj().T
    return hermitize(g / np.trace(g).real)


def random_embedding(
    rng: np.random.Generator,
    source: BlockAlgebra,
    num_target_blocks: int = 1,
    max_copies: int = 2,
    with_unitaries: bool = True,
) -> UnitalEmbedding:
    """Random unital embedding out of the given source algebra."""
    r = source.num_blocks
    c = np.zeros((num_target_blocks, r), dtype=int)
    for k in range(num_target_blocks):
        c[k] = rng.integers(0, max_copies + 1, size=r)
        if not np.any(c[k]):
            c[k, int(rng.integers(0, r))] = 1
    dims = (c @ np.array(source.block_dims)).astype(int)
    target = BlockAlgebra(tuple(int(n) for n in dims))
    unitaries = None
    if with_unitaries:
        unitaries = tuple(random_unitary(rng, n) for n in target.block_dims)
    return UnitalEmbedding(source, target, c, unitaries)


def random_ucp(
    rng: np.random.Generator,
    source: BlockAlgebra,
    target: BlockAlgebra,
    n_kraus: int = 3,
) -> UcpMap:
    """Random unital CP map source -> target (Kraus normalization)."""
    s = source.space_dim
    families = []
    for n in target.block_dims:
        raw = [random_complex(rng, (s, n)) for _ in range(n_kraus)]
        total = sum(a.conj().T @ a for a in raw)
        w, v = eigh(hermitize(total))
        inv_root = unitary_power((w, v), -0.5, rank_cut(n, float(np.max(np.abs(w)))))
        families.append(tuple(a @ inv_root for a in raw))
    return UcpMap(source, target, tuple(families))


def dephasing_ucp(algebra: BlockAlgebra) -> UcpMap:
    """Blockwise dephasing in the standard basis (projections as Kraus ops)."""
    s = algebra.space_dim
    offsets = np.concatenate([[0], np.cumsum(algebra.block_dims)])
    families = []
    for k, n in enumerate(algebra.block_dims):
        fam = []
        for i in range(n):
            m = np.zeros((s, n), dtype=complex)
            m[offsets[k] + i, i] = 1.0
            fam.append(m)
        families.append(tuple(fam))
    return UcpMap(algebra, algebra, tuple(families))


def unitary_conjugation_ucp(algebra: BlockAlgebra, unitaries) -> UcpMap:
    """Conjugation a -> U^* a U as a UCP map on the same algebra."""
    s = algebra.space_dim
    offsets = np.concatenate([[0], np.cumsum(algebra.block_dims)])
    families = []
    for k, (n, u) in enumerate(zip(algebra.block_dims, unitaries)):
        m = np.zeros((s, n), dtype=complex)
        m[offsets[k] : offsets[k] + n, :] = u
        families.append((m,))
    return UcpMap(algebra, algebra, tuple(families))


def bell_state() -> Functional:
    """Maximally entangled two-qubit state on M_4."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return Functional(BlockAlgebra((4,)), (np.outer(v, v.conj()),))
