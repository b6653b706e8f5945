"""Seeded random instance generators for tests and the self-test suite."""

from __future__ import annotations

import numpy as np

from .algebra import BlockAlgebra, BlockOperator, Functional
from .linalg import eigh, hermitize, power, spectral_apply
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


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    d = random_psd(rng, n)
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
    g = spectral_apply(eigh(h), lambda w: np.exp(-w))
    return hermitize(g / np.trace(g).real)


def random_embedding(
    rng: np.random.Generator,
    source: BlockAlgebra,
    num_target_blocks: int = 1,
) -> UnitalEmbedding:
    """Random unital embedding out of source: up to 2 copies per target block, at least 1 in all."""
    r = source.num_blocks
    c = np.zeros((num_target_blocks, r), dtype=int)
    for k in range(num_target_blocks):
        c[k] = rng.integers(0, 3, size=r)
        if not np.any(c[k]):
            c[k, int(rng.integers(0, r))] = 1
    for l in np.flatnonzero(~c.any(axis=0)):
        c[int(rng.integers(0, num_target_blocks)), l] = 1
    dims = (c @ np.array(source.block_dims)).astype(int)
    target = BlockAlgebra(tuple(int(n) for n in dims))
    unitaries = tuple(random_unitary(rng, n) for n in target.block_dims)
    return UnitalEmbedding(source, target, c, unitaries)


def random_ucp(rng: np.random.Generator, source: BlockAlgebra, target: BlockAlgebra) -> UcpMap:
    """Random unital CP map source -> target; a target block of side n gets
    max(3, ceil(n / source.space_dim)) Kraus operators, enough to span C^n,
    each drawn on the whole source space and cut into its row blocks."""
    s = source.space_dim
    cuts = np.cumsum(source.block_dims)[:-1]
    families = []
    for n in target.block_dims:
        raw = [random_complex(rng, (s, n)) for _ in range(max(3, -(-n // s)))]
        total = sum(a.conj().T @ a for a in raw)
        inv_root = power(eigh(hermitize(total)), -0.5)
        families.append(tuple(p for a in raw for p in enumerate(np.split(a @ inv_root, cuts))))
    return UcpMap(source, target, tuple(families))


def dephasing_ucp(algebra: BlockAlgebra) -> UcpMap:
    """Blockwise dephasing in the standard basis (rank-one projections as Kraus pieces)."""
    families = tuple(
        tuple((k, np.diag(e)) for e in np.eye(n)) for k, n in enumerate(algebra.block_dims)
    )
    return UcpMap(algebra, algebra, families)
