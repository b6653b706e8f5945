"""The per-block spectrum a Functional keeps, and the eigh calls it saves.

Counts come from a counting wrapper patched over numpy.linalg.eigh.
References are the test helpers' matrix functions from a fresh eigh, so
they do not read the cache they check.
"""

import numpy as np
import pytest

from amplitude_lab import (
    Functional,
    functional_norm,
    inequality_suite,
    kms_defect,
    make_algebra,
    modular_flow,
    support_projection,
    total_rank,
    transition_amplitude,
    uhlmann_fidelity,
)
from amplitude_lab.sampling import random_gibbs, random_operator, random_psd, random_state

from helpers import eig_fn


@pytest.fixture
def eigh_calls(monkeypatch):
    """List that grows by one entry (the matrix shape) per numpy eigh call."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def fresh_pair(seed, dims):
    rng = np.random.default_rng(seed)
    alg = make_algebra(dims)
    return random_state(rng, alg), random_state(rng, alg)


def root(d):
    return eig_fn(d, lambda w: np.sqrt(np.maximum(w, 0.0)))


class TestEighCounts:
    def test_construction_takes_no_eigh(self, eigh_calls):
        phi, psi = fresh_pair(0, [3, 2, 1])
        _ = phi + psi
        assert eigh_calls == []

    def test_amplitude_takes_two_eigh_per_block_then_none(self, eigh_calls):
        phi, psi = fresh_pair(1, [3, 2, 1])
        first = transition_amplitude(phi, psi)
        assert len(eigh_calls) == 2 * 3
        again = transition_amplitude(phi, psi)
        swapped = transition_amplitude(psi, phi)
        assert len(eigh_calls) == 2 * 3
        assert again == first
        assert swapped == pytest.approx(first, abs=1e-14)

    def test_inequality_suite_on_a_fresh_m6_pair(self, eigh_calls):
        phi, psi = fresh_pair(2, [6])
        assert inequality_suite(phi, psi).min_defect() >= -1e-9
        assert len(eigh_calls) <= 10

    def test_kms_defect_after_require_positive_takes_none(self, eigh_calls):
        rng = np.random.default_rng(3)
        alg = make_algebra([4, 2])
        phi = Functional(alg, (0.5 * random_gibbs(rng, 4), 0.5 * random_gibbs(rng, 2)))
        x, y = random_operator(rng, alg), random_operator(rng, alg)
        phi.require_positive()
        del eigh_calls[:]
        assert kms_defect(phi, x, y, 0.7) <= 1e-9
        assert eigh_calls == []

    def test_arithmetic_starts_with_its_own_spectrum(self, eigh_calls):
        phi, psi = fresh_pair(4, [3, 2])
        phi.spectrum()
        psi.spectrum()
        del eigh_calls[:]
        diff = phi - psi
        functional_norm(diff)
        assert eigh_calls == [(3, 3), (2, 2)]


class TestSpectrum:
    def test_kept_and_read_only(self):
        phi, _ = fresh_pair(5, [3, 2])
        spec = phi.spectrum()
        assert phi.spectrum() is spec
        w, v = spec[0]
        with pytest.raises(ValueError):
            w[0] = 0.0
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_matches_a_fresh_eigh_of_the_hermitized_density(self):
        phi, _ = fresh_pair(6, [4, 1])
        for d, (w, v) in zip(phi.densities, phi.spectrum()):
            w_ref, v_ref = np.linalg.eigh(0.5 * (d + d.conj().T))
            assert np.array_equal(w, w_ref)
            assert np.array_equal(v, v_ref)


class TestCachedResultsMatchReferences:
    """Each value is computed twice: once filling the cache, once reading it."""

    def test_transition_amplitude(self):
        phi, psi = fresh_pair(7, [4, 3, 1])
        ref = sum(
            np.trace(root(dp) @ root(dq)).real for dp, dq in zip(phi.densities, psi.densities)
        )
        for _ in range(2):
            assert transition_amplitude(phi, psi) == pytest.approx(ref, abs=1e-12)

    def test_uhlmann_fidelity(self):
        phi, psi = fresh_pair(8, [4, 3, 1])
        norm = sum(
            np.sum(np.linalg.svd(root(dp) @ root(dq), compute_uv=False))
            for dp, dq in zip(phi.densities, psi.densities)
        )
        for _ in range(2):
            assert uhlmann_fidelity(phi, psi) == pytest.approx(norm**2, abs=1e-12)

    def test_support_projection_and_total_rank(self):
        rng = np.random.default_rng(9)
        # A A^* has the range of A, whose projection is A (A^* A)^{-1} A^*
        factors = [
            rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            for n, r in ((5, 2), (3, 3), (2, 1))
        ]
        dens = [a @ a.conj().T for a in factors]
        phi = Functional(make_algebra([5, 3, 2]), tuple(d / 10.0 for d in dens))
        refs = [a @ np.linalg.solve(a.conj().T @ a, a.conj().T) for a in factors]
        for _ in range(2):
            assert total_rank(phi) == 2 + 3 + 1
            for p, ref in zip(support_projection(phi).blocks, refs):
                assert np.allclose(p, ref, atol=1e-12)

    def test_modular_flow(self):
        rng = np.random.default_rng(10)
        alg = make_algebra([4, 2])
        phi = Functional(alg, (0.5 * random_gibbs(rng, 4), 0.5 * random_psd(rng, 2)))
        x = random_operator(rng, alg)
        t = 0.8
        ref = [
            eig_fn(d, lambda w: w ** (1j * t)) @ b @ eig_fn(d, lambda w: w ** (-1j * t))
            for d, b in zip(phi.densities, x.blocks)
        ]
        for _ in range(2):
            for got, want in zip(modular_flow(phi, t, x).blocks, ref):
                assert np.allclose(got, want, atol=1e-12)
