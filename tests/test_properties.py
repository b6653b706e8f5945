"""The paper's identities as properties, on badly scaled block states.

Each block is zero or a PSD block of random rank scaled by 10^u with u
in [-8, 8], so one functional mixes blocks up to sixteen decades apart.
The suite profile in conftest.py derandomizes the examples.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from amplitude_lab import (
    DEFAULT_TOL,
    Functional,
    StateRelation,
    amplitude_sum_check,
    central_support,
    classify_pair,
    make_algebra,
    support_projection,
    total_rank,
    transition_amplitude,
)


def _block(n: int, rank: int, u: float, seed: int) -> np.ndarray:
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    b = a @ a.conj().T
    return b * (10.0**u / np.trace(b).real)


@st.composite
def functionals(draw, dims):
    blocks = [
        _block(
            n,
            draw(st.integers(0, n)),
            draw(st.floats(-8.0, 8.0)),
            draw(st.integers(0, 2**32 - 1)),
        )
        for n in dims
    ]
    if not any(b.any() for b in blocks):
        blocks[-1] = _block(dims[-1], dims[-1], 0.0, 0)
    return Functional(make_algebra(dims), tuple(blocks))


@st.composite
def pairs(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return draw(functionals(dims)), draw(functionals(dims))


@given(pairs())
def test_amplitude_is_the_sum_over_central_components(pair):
    phi, psi = pair
    bound = DEFAULT_TOL.num * max(1.0, np.sqrt(phi.mass * psi.mass))
    assert amplitude_sum_check(phi, psi).defect <= bound


@given(pairs())
def test_disjoint_states_have_amplitude_zero(pair):
    phi, psi = pair
    if classify_pair(phi, psi) is StateRelation.DISJOINT:
        assert transition_amplitude(phi, psi) == 0.0


@given(pairs())
def test_central_support_is_the_central_cover_of_the_support(pair):
    phi = pair[0]
    for p, z in zip(support_projection(phi).blocks, central_support(phi).blocks):
        assert np.array_equal(z, np.eye(len(z)) * bool(p.any()))


@given(pairs())
def test_rank_does_not_see_the_scale_of_other_blocks(pair):
    phi = pair[0]
    rank = total_rank(phi)
    for k in range(phi.algebra.num_blocks):
        for c in (1e-8, 1e8):
            densities = list(phi.densities)
            densities[k] = c * densities[k]
            assert total_rank(Functional(phi.algebra, tuple(densities))) == rank
