"""Shared oracles and builders for the test suite.

The oracles stay independent of the code paths they check: the
closed-form SPD mean uses plain eigendecompositions.  The paper's
identities themselves are the functions of amplitude_lab.selftest.
"""

import tracemalloc

import numpy as np

from amplitude_lab import DEFAULT_TOL, BlockAlgebra, Functional, UcpMap


def eig_fn(h: np.ndarray, fn) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * fn(w)) @ v.conj().T


def clamped_power(w: np.ndarray, v: np.ndarray, fn) -> np.ndarray:
    """Hermitized v fn(w) v* with eigenvalues up to len(w) * eps * max|w| taken as 0."""
    cut = len(w) * np.finfo(float).eps * np.max(np.abs(w), initial=0.0)
    m = (v * fn(np.where(w > cut, w, 0.0))) @ v.conj().T
    return 0.5 * m + 0.5 * m.conj().T


def root_overlap(da: np.ndarray, db: np.ndarray) -> tuple[float, float]:
    """(Tr(A^{1/2} B^{1/2}), ||A^{1/2} B^{1/2}||_1) of two PSD matrices by plain numpy: each
    root from a fresh complex eigh, cut as clamped_power cuts it, then the roots' Hilbert-Schmidt
    inner product and the trace norm of their product."""
    ra, rb = (clamped_power(*np.linalg.eigh((0.5 * (d + d.conj().T)).astype(complex)), np.sqrt)
              for d in (da, db))
    norm = np.sum(np.linalg.svd(ra @ rb, compute_uv=False))
    return float(np.sum(ra.conj() * rb).real), float(norm)


def spd_mean_closed_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A # B = A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}, invertible inputs."""
    ar = eig_fn(a, np.sqrt)
    ai = eig_fn(a, lambda w: 1.0 / np.sqrt(w))
    mid = eig_fn(ai @ b @ ai, lambda w: np.sqrt(np.maximum(w, 0.0)))
    return ar @ mid @ ar


def block_diag(*mats: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of square blocks, in their common dtype."""
    ends = np.cumsum([len(m) for m in mats])
    out = np.zeros((ends[-1], ends[-1]), dtype=np.result_type(*mats))
    for m, end in zip(mats, ends):
        out[end - len(m) : end, end - len(m) : end] = m
    return out


def reduced_quotient(m: np.ndarray, sides) -> tuple[int, np.ndarray]:
    """(kernel_dim, q) of the reduction of a real block-diagonal product m with blocks of the
    given sides: one np.linalg.eigh per block, an eigenvalue kept above len * eps * max|w| of
    its own block, q the kept eigenvectors by ascending eigenvalue (ties in block order), or
    the identity when none is dropped."""
    w, v, keep, start = np.empty(len(m)), np.zeros_like(m), np.empty(len(m), dtype=bool), 0
    for n in sides:
        b = slice(start, start + n)
        w[b], v[b, b] = np.linalg.eigh(m[b, b])
        keep[b] = w[b] > n * np.finfo(float).eps * np.max(np.abs(w[b]))
        start += n
    order = np.argsort(w, kind="stable")
    keep = keep[order]
    if keep.all():
        return 0, np.eye(len(m))
    return int(np.sum(~keep)), v[:, order][:, keep].T


def min_eigval(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0])


def dominated_by_summands(gc: np.ndarray, ga: np.ndarray, gb: np.ndarray, sides) -> bool:
    """is_dominated's verdict from its certificate [[G_a, G_c], [G_c*, G_b]] on each summand of
    the given sides alone, by np.block and np.linalg.eigvalsh, against DEFAULT_TOL's slack."""
    w, start = [], 0
    for n in sides:
        b = slice(start, start + n)
        cert = np.block([[ga[b, b], gc[b, b]], [gc[b, b].conj().T, gb[b, b]]])
        w.append(np.linalg.eigvalsh(cert))
        start += n
    w = np.concatenate(w)
    return bool(w.min() >= -DEFAULT_TOL.psd(np.abs(w).max()))


def peak_bytes(fn) -> tuple[int, int]:
    """(peak, held): the most bytes tracemalloc traced during fn() and those still traced as fn
    returns, its result among them.  Tracing stops however fn exits."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak, held


def unitary_conjugation_ucp(algebra: BlockAlgebra, unitaries) -> UcpMap:
    """Conjugation a -> U^* a U as a UCP map on the same algebra: one piece (k, U_k) per block."""
    families = tuple(((k, u),) for k, u in enumerate(unitaries))
    return UcpMap(algebra, algebra, families)


def bell_state() -> Functional:
    """Maximally entangled two-qubit state on M_4."""
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return Functional(BlockAlgebra((4,)), (np.outer(v, v),))


def rank_one_on_m1_m1_m1_m2(scale: float) -> Functional:
    """The complex rank-1 block v v* on M2 beside three M1 blocks of 0.5, 0.25 and 0, times
    scale: for a scale below about 1e-308 its entries, and its mass, are subnormal."""
    v = np.array([0.968, 0.1147 + 0.2221j])
    blocks = ([[0.5]], [[0.25]], [[0.0]], np.outer(v, v.conj()))
    return Functional(BlockAlgebra((1, 1, 1, 2)), tuple(np.multiply(b, scale) for b in blocks))
