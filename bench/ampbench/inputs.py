"""Seeded inputs for the benchmark workloads, made with numpy alone.

Nothing here calls ``amplitude_lab.sampling``: a change to the library's
own samplers must not change what the benchmark feeds the library.
Every generator takes a ``numpy.random.Generator``; ``rng_for(seed, *key)``
derives one per (seed, purpose, op index), so the inputs of op i do not
depend on how many ops ran before it.
"""

from __future__ import annotations

import numpy as np

# ln(lambda_max / lambda_min) of every faithful state the benchmark builds.
# A Gibbs state exp(-H)/Z of a random Hermitian H on M_128 has a spread of
# about 44, far past the rank cut, so it is numerically non-faithful; a
# fixed spread keeps the workload about the program, not about conditioning.
SPECTRAL_SPREAD = 3.0


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary from the QR of a complex Gaussian matrix."""
    q, r = np.linalg.qr(gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spread_state(
    rng: np.random.Generator, dims, half_rank: bool = False, spread: float = SPECTRAL_SPREAD
) -> list[np.ndarray]:
    """Block densities of a state with eigenvalues exp(-spread * u), u in [0, 1].

    The extreme values u = 0 and u = 1 are always drawn, so a full-rank
    state has exactly the given spread.  With ``half_rank`` each block of
    size n keeps max(1, n // 2) nonzero eigenvalues; the rest are exact
    zeros before the Haar rotation.
    """
    total = int(sum(dims))
    u = rng.uniform(0.0, 1.0, total)
    u[rng.permutation(total)[:2]] = (0.0, 1.0) if total > 1 else (0.0,)
    lam = np.exp(-spread * u)
    lam /= lam.sum()
    blocks, pos = [], 0
    for n in dims:
        w = lam[pos : pos + n].copy()
        pos += n
        if half_rank:
            w[max(1, n // 2) :] = 0.0
        v = unitary(rng, n)
        d = (v * w) @ v.conj().T
        blocks.append(0.5 * (d + d.conj().T))
    if half_rank:
        mass = sum(float(np.trace(d).real) for d in blocks)
        blocks = [d / mass for d in blocks]
    return blocks


def operator(rng: np.random.Generator, dims) -> list[np.ndarray]:
    """Complex Gaussian blocks scaled to operator norm of order one."""
    return [gaussian(rng, (n, n)) / np.sqrt(2.0 * n) for n in dims]


def psd_form(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank positive Gram matrix with the standard spectral spread."""
    (g,) = spread_state(rng, (n,))
    return g * n


SITE_KINDS = ("pure0", "pure1", "plus", "mixed", "diag")


def site_density(rng: np.random.Generator, kind: str) -> tuple[str, np.ndarray]:
    """One qubit site state of the given kind, as (CLI site spec, 2x2 density)."""
    if kind == "pure0":
        return kind, np.diag([1.0, 0.0]).astype(complex)
    if kind == "pure1":
        return kind, np.diag([0.0, 1.0]).astype(complex)
    if kind == "plus":
        return kind, np.full((2, 2), 0.5, dtype=complex)
    if kind == "mixed":
        return kind, np.eye(2, dtype=complex) / 2.0
    p = float(rng.uniform(0.2, 0.8))
    return f"diag:{p!r},{1.0 - p!r}", np.diag([p, 1.0 - p]).astype(complex)


def covariance_triple(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma, S, T) on R^4 with a one-dimensional common kernel.

    Coordinates 0, 1 form a symplectic pair, coordinate 2 carries no
    symplectic weight and coordinate 3 is degenerate for both covariances;
    a random rotation hides the split.  S = (g + i sigma) / 2 is positive
    because each g dominates |sigma| on the pair.
    """
    s = float(rng.uniform(0.5, 1.5))
    sigma0 = np.zeros((4, 4))
    sigma0[0, 1], sigma0[1, 0] = s, -s
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    sigma = q @ sigma0 @ q.T
    sigma = 0.5 * (sigma - sigma.T)
    covs = []
    for _ in range(2):
        g0 = np.diag([s + rng.uniform(0.1, 1.0), s + rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.0), 0.0])
        g = q @ g0 @ q.T
        g = 0.5 * (g + g.T)
        covs.append(0.5 * (g + 1j * sigma))
    return sigma, covs[0], covs[1]
